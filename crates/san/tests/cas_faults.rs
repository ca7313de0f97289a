//! Satellite: `cas` under injected faults never double-applies.
//!
//! The store rolls the fault decision *before* touching its map, so
//! a `cas` that returns a transient error must not have applied — the
//! retried attempt with the same `expected` must therefore succeed, never
//! conflict. A conflict on retry would mean the "failed" attempt actually
//! landed (double-apply), which is exactly the bug class this pins. A
//! storeless oracle tracks the version counter and liveness through
//! updates, deletes and tombstone-crossing re-creates, and must agree with
//! the store after every committed operation.

use dosgi_san::{FaultPlan, SharedStore, StoreError, Value};
use dosgi_testkit::{prop, Gen, PropConfig, TestRng};

/// What the single-writer client model expects the store to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Oracle {
    /// Monotonic per-key counter (includes tombstoned generations).
    counter: u64,
    /// Whether the key currently holds a value.
    live: bool,
}

impl Oracle {
    fn expected(&self) -> u64 {
        if self.live {
            self.counter
        } else {
            0 // tombstoned or absent: cas sees "no key"
        }
    }
}

/// One case: a seeded schedule of cas/delete rounds under a seeded flaky
/// plan.
#[derive(Debug, Clone)]
struct Case {
    fault_seed: u64,
    io_permille: u32,
    rounds: Vec<Round>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// cas(expected = oracle.expected()) with a fresh value.
    Cas,
    /// delete the key (NotFound allowed when not live).
    Delete,
}

fn cases() -> Gen<Case> {
    Gen::new(|rng: &mut TestRng| Case {
        fault_seed: rng.next_u64(),
        io_permille: rng.u64_below(600) as u32, // up to 60% transient errors
        rounds: (0..rng.usize_in(4, 30))
            .map(|_| {
                if rng.chance(0.25) {
                    Round::Delete
                } else {
                    Round::Cas
                }
            })
            .collect(),
    })
}

/// Runs one case, checking the store against the oracle after every round.
fn run_case(case: &Case) -> Result<(), String> {
    const MAX_ATTEMPTS: u32 = 300;
    let store = SharedStore::new();
    store.set_fault_plan(FaultPlan::flaky(
        f64::from(case.io_permille) / 1000.0,
        case.fault_seed,
    ));
    let mut oracle = Oracle {
        counter: 0,
        live: false,
    };
    for (i, round) in case.rounds.iter().enumerate() {
        match round {
            Round::Cas => {
                let value = Value::Int(i as i64);
                let expected = oracle.expected();
                let mut attempts = 0;
                let version = loop {
                    match store.cas("k8s", "lease", expected, value.clone()) {
                        Ok(v) => break v,
                        Err(e) if e.is_transient() => {
                            attempts += 1;
                            if attempts > MAX_ATTEMPTS {
                                return Err(format!(
                                    "round {i}: {MAX_ATTEMPTS} transient errors in a row \
                                     at io_permille={}",
                                    case.io_permille
                                ));
                            }
                        }
                        Err(StoreError::CasConflict { expected, found }) => {
                            return Err(format!(
                                "round {i}: conflict on retry (expected v{expected}, \
                                 found v{found}) — a failed cas must not have applied"
                            ));
                        }
                        Err(e) => return Err(format!("round {i}: unexpected error {e}")),
                    }
                };
                oracle.counter += 1;
                oracle.live = true;
                if version != oracle.counter {
                    return Err(format!(
                        "round {i}: committed v{version}, oracle expects v{} — \
                         a retry double-applied or the counter drifted",
                        oracle.counter
                    ));
                }
            }
            Round::Delete => {
                let mut attempts = 0;
                loop {
                    match store.delete("k8s", "lease") {
                        Ok(()) => {
                            if !oracle.live {
                                return Err(format!(
                                    "round {i}: delete succeeded but oracle says not live"
                                ));
                            }
                            oracle.live = false;
                            break;
                        }
                        Err(StoreError::NotFound { .. }) => {
                            if oracle.live {
                                return Err(format!(
                                    "round {i}: NotFound but oracle says live at v{}",
                                    oracle.counter
                                ));
                            }
                            break;
                        }
                        Err(e) if e.is_transient() => {
                            attempts += 1;
                            if attempts > MAX_ATTEMPTS {
                                return Err(format!("round {i}: delete retries exhausted"));
                            }
                        }
                        Err(e) => return Err(format!("round {i}: unexpected error {e}")),
                    }
                }
            }
        }
        // After every committed round the store must mirror the oracle
        // exactly (a dump bypasses faults).
        let got = store.dump().into_iter().filter(|(ns, _)| ns == "k8s");
        let got = got
            .flat_map(|(_, rows)| rows)
            .find(|(k, _)| k == "lease")
            .map(|(_, v)| v);
        match (oracle.live, got) {
            (true, Some(v)) if v.version == oracle.counter => {}
            (false, None) => {}
            (live, got) => {
                return Err(format!(
                    "round {i}: oracle (live={live}, counter={}) disagrees with store {got:?}",
                    oracle.counter
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn prop_cas_under_faults_never_double_applies() {
    prop::check_with(
        &PropConfig::with_cases(200),
        "prop_cas_under_faults_never_double_applies",
        &cases(),
        run_case,
    );
}
