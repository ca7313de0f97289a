//! A minimal deterministic property-testing harness.
//!
//! Replaces `proptest` for this workspace. Differences are deliberate:
//!
//! * **Deterministic by default.** Every run draws the same cases from a
//!   fixed base seed, so CI and laptops see identical inputs. Failures
//!   print the failing case seed; re-running with
//!   `DOSGI_PROP_SEED=0x<seed>` (or [`Config::only_seed`]) replays exactly
//!   that case.
//! * **Explicit generators.** A [`Gen<T>`] is just a seeded closure —
//!   composition is ordinary function composition, no macro DSL.
//! * **Linear shrinking, opt-in.** [`check_shrink`] walks caller-provided
//!   shrink candidates greedily until none fail; [`check`] skips shrinking.

use crate::rng::{mix_seed, TestRng};
use std::fmt::Debug;
use std::rc::Rc;

/// A reusable generator of `T` values from a [`TestRng`].
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            f: Rc::clone(&self.f),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a sampling closure.
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        Gen { f: Rc::new(f) }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(rng)
    }

    /// A generator applying `f` to every sampled value.
    pub fn map<U: 'static>(&self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let inner = Rc::clone(&self.f);
        Gen::new(move |rng| f(inner(rng)))
    }
}

/// Always the same value.
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| value.clone())
}

/// Uniform `u64` in `[lo, hi]`.
pub fn u64s(lo: u64, hi: u64) -> Gen<u64> {
    Gen::new(move |rng| rng.u64_in(lo, hi))
}

/// Uniform `u8` in `[lo, hi]`.
pub fn u8s(lo: u8, hi: u8) -> Gen<u8> {
    Gen::new(move |rng| rng.u64_in(lo as u64, hi as u64) as u8)
}

/// Uniform `u16` in `[lo, hi]`.
pub fn u16s(lo: u16, hi: u16) -> Gen<u16> {
    Gen::new(move |rng| rng.u64_in(lo as u64, hi as u64) as u16)
}

/// Uniform `i64` over the whole range.
pub fn any_i64() -> Gen<i64> {
    Gen::new(|rng| rng.any_i64())
}

/// Fair coin.
pub fn bools() -> Gen<bool> {
    Gen::new(|rng| rng.chance(0.5))
}

/// Uniform byte.
pub fn bytes() -> Gen<u8> {
    Gen::new(|rng| rng.byte())
}

/// A `Vec<T>` with length uniform in `[min_len, max_len]`.
pub fn vecs<T: 'static>(elem: Gen<T>, min_len: usize, max_len: usize) -> Gen<Vec<T>> {
    Gen::new(move |rng| {
        let n = rng.usize_in(min_len, max_len);
        (0..n).map(|_| elem.sample(rng)).collect()
    })
}

/// An ASCII-lowercase string with length uniform in `[min_len, max_len]`.
pub fn lowercase(min_len: usize, max_len: usize) -> Gen<String> {
    Gen::new(move |rng| {
        let n = rng.usize_in(min_len, max_len);
        (0..n)
            .map(|_| (b'a' + rng.u64_below(26) as u8) as char)
            .collect()
    })
}

/// Picks one of the given generators uniformly per sample.
///
/// # Panics
///
/// Panics if `choices` is empty.
pub fn one_of<T: 'static>(choices: Vec<Gen<T>>) -> Gen<T> {
    assert!(!choices.is_empty(), "one_of: no choices");
    Gen::new(move |rng| {
        let i = rng.u64_below(choices.len() as u64) as usize;
        choices[i].sample(rng)
    })
}

/// The outcome of one property evaluation: `Ok(())` or a failure message.
pub type PropResult = Result<(), String>;

/// Fails a property with a formatted message unless `cond` holds — the
/// harness's analogue of `prop_assert!`.
#[macro_export]
macro_rules! prop_verify {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails a property unless the two values compare equal — the harness's
/// analogue of `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_verify_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {l:?}\n right: {r:?}",
                stringify!($left),
                stringify!($right)
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n  left: {l:?}\n right: {r:?}",
                format!($($fmt)+)
            ));
        }
    }};
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cases to run (ignored when replaying a single seed).
    pub cases: u32,
    /// Base seed; per-case seeds are mixed from it. Fixed so that runs are
    /// identical everywhere.
    pub seed: u64,
    /// Upper bound on shrink iterations in [`check_shrink`].
    pub shrink_steps: u32,
    /// When set, run exactly this one case seed (normally injected via the
    /// `DOSGI_PROP_SEED` environment variable).
    pub only_seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: 0xD05_61D0_5610_57E5,
            shrink_steps: 500,
            only_seed: seed_from_env(),
        }
    }
}

impl Config {
    /// A config running `cases` cases with everything else default.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// Reads `DOSGI_PROP_SEED` (decimal, or hex with an `0x` prefix).
fn seed_from_env() -> Option<u64> {
    let raw = std::env::var("DOSGI_PROP_SEED").ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("DOSGI_PROP_SEED={raw:?} is not a valid u64"),
    }
}

/// Runs `prop` over `cfg.cases` values drawn from `gen`, panicking with a
/// reproduction seed on the first failure. No shrinking.
pub fn check_with<T: Debug + 'static>(
    cfg: &Config,
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> PropResult,
) {
    run(cfg, name, gen, None::<fn(&T) -> Vec<T>>, prop)
}

/// [`check_with`] under the default [`Config`].
pub fn check<T: Debug + 'static>(name: &str, gen: &Gen<T>, prop: impl Fn(&T) -> PropResult) {
    check_with(&Config::default(), name, gen, prop)
}

/// Like [`check_with`], but on failure greedily walks `shrink` candidates
/// (first failing candidate wins, repeat) before reporting, bounded by
/// `cfg.shrink_steps`.
pub fn check_shrink<T: Debug + 'static>(
    cfg: &Config,
    name: &str,
    gen: &Gen<T>,
    shrink: impl Fn(&T) -> Vec<T>,
    prop: impl Fn(&T) -> PropResult,
) {
    run(cfg, name, gen, Some(shrink), prop)
}

fn run<T: Debug + 'static, S: Fn(&T) -> Vec<T>>(
    cfg: &Config,
    name: &str,
    gen: &Gen<T>,
    shrink: Option<S>,
    prop: impl Fn(&T) -> PropResult,
) {
    let case_seeds: Vec<u64> = match cfg.only_seed {
        Some(seed) => vec![seed],
        None => (0..cfg.cases)
            .map(|i| mix_seed(cfg.seed, i as u64))
            .collect(),
    };
    for (i, &case_seed) in case_seeds.iter().enumerate() {
        let mut rng = TestRng::new(case_seed);
        let value = gen.sample(&mut rng);
        if let Err(first_err) = prop(&value) {
            let (value, err, shrunk) = match &shrink {
                None => (value, first_err, 0),
                Some(s) => shrink_loop(cfg, s, &prop, value, first_err),
            };
            let shrunk_note = if shrunk > 0 {
                format!(" (shrunk {shrunk} steps)")
            } else {
                String::new()
            };
            panic!(
                "property '{name}' failed on case {i} with seed \
                 0x{case_seed:016x}{shrunk_note}\n  input: {value:?}\n  cause: {err}\n  \
                 reproduce with: DOSGI_PROP_SEED=0x{case_seed:x} cargo test {name}"
            );
        }
    }
}

fn shrink_loop<T: Debug>(
    cfg: &Config,
    shrink: impl Fn(&T) -> Vec<T>,
    prop: &impl Fn(&T) -> PropResult,
    mut value: T,
    mut err: String,
) -> (T, String, u32) {
    let mut steps = 0;
    let mut budget = cfg.shrink_steps;
    'outer: while budget > 0 {
        for candidate in shrink(&value) {
            budget = budget.saturating_sub(1);
            if let Err(candidate_err) = prop(&candidate) {
                value = candidate;
                err = candidate_err;
                steps += 1;
                continue 'outer;
            }
            if budget == 0 {
                break;
            }
        }
        break;
    }
    (value, err, steps)
}

/// Shrink candidates for a vector: drop one element at a time (front-to-
/// back), plus each half. Linear and cheap; pair with [`check_shrink`].
pub fn shrink_vec<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    if v.is_empty() {
        return out;
    }
    if v.len() > 1 {
        out.push(v[..v.len() / 2].to_vec());
        out.push(v[v.len() / 2..].to_vec());
    }
    for i in 0..v.len() {
        let mut shorter = v.to_vec();
        shorter.remove(i);
        out.push(shorter);
    }
    out
}

/// Shrink candidates for an integer: zero, then successive halvings toward
/// zero.
pub fn shrink_u64(v: u64) -> Vec<u64> {
    if v == 0 {
        return Vec::new();
    }
    let mut out = vec![0, v / 2];
    if v > 1 {
        out.push(v - 1);
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn no_env() -> Config {
        // Unit tests must not inherit a replay seed from the environment.
        Config {
            only_seed: None,
            ..Config::default()
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let count = RefCell::new(0u32);
        let cfg = Config {
            cases: 40,
            ..no_env()
        };
        check_with(&cfg, "counts", &u64s(0, 10), |v| {
            *count.borrow_mut() += 1;
            prop_verify!(*v <= 10);
            Ok(())
        });
        assert_eq!(*count.borrow(), 40);
    }

    #[test]
    fn failure_reports_reproducible_seed() {
        let cfg = no_env();
        let gen = u64s(0, 1000);
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_with(&cfg, "fails_over_500", &gen, |v| {
                prop_verify!(*v <= 500, "{v} > 500");
                Ok(())
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap().clone();
        assert!(msg.contains("DOSGI_PROP_SEED=0x"), "{msg}");
        // Extract the seed and replay: must fail again, deterministically.
        let seed_hex = msg
            .split("seed 0x")
            .nth(1)
            .unwrap()
            .chars()
            .take_while(|c| c.is_ascii_hexdigit())
            .collect::<String>();
        let seed = u64::from_str_radix(&seed_hex, 16).unwrap();
        let replay = Config {
            only_seed: Some(seed),
            ..no_env()
        };
        let failing_value = RefCell::new(None);
        let replay_err = catch_unwind(AssertUnwindSafe(|| {
            check_with(&replay, "fails_over_500", &gen, |v| {
                *failing_value.borrow_mut() = Some(*v);
                prop_verify!(*v <= 500, "{v} > 500");
                Ok(())
            });
        }))
        .unwrap_err();
        let replay_msg = replay_err.downcast_ref::<String>().unwrap();
        assert!(replay_msg.contains(&seed_hex), "{replay_msg}");
        assert!(failing_value.borrow().unwrap() > 500);
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let draw_all = || {
            let cfg = Config {
                cases: 16,
                ..no_env()
            };
            let values = RefCell::new(Vec::new());
            check_with(&cfg, "collect", &u64s(0, u64::MAX), |v| {
                values.borrow_mut().push(*v);
                Ok(())
            });
            values.into_inner()
        };
        assert_eq!(draw_all(), draw_all());
    }

    #[test]
    fn shrinking_finds_a_smaller_counterexample() {
        // Property: vec has no element >= 100. Failing vecs shrink toward a
        // single offending element.
        let cfg = no_env();
        let gen = vecs(u64s(0, 150), 0, 20);
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_shrink(
                &cfg,
                "small_elems",
                &gen,
                |v| shrink_vec(v),
                |v| {
                    prop_verify!(v.iter().all(|&x| x < 100), "{v:?} has a big element");
                    Ok(())
                },
            );
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("shrunk"), "{msg}");
        // The reported input must be a minimal-length counterexample.
        let start = msg.find("input: [").unwrap() + "input: ".len();
        let end = msg[start..].find(']').unwrap() + start + 1;
        let reported = &msg[start..end];
        let elems = reported.trim_matches(['[', ']']).split(',').count();
        assert_eq!(elems, 1, "expected 1-element shrink, got {reported}");
    }

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::new(1);
        let g = one_of(vec![
            u8s(0, 3).map(|v| v as u64),
            u64s(100, 200),
            just(7u64),
        ]);
        for _ in 0..200 {
            let v = g.sample(&mut rng);
            assert!(v <= 3 || (100..=200).contains(&v) || v == 7, "{v}");
        }
        let s = lowercase(1, 8).sample(&mut rng);
        assert!((1..=8).contains(&s.len()));
        assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
        let v = vecs(bools(), 2, 5).sample(&mut rng);
        assert!((2..=5).contains(&v.len()));
    }

    #[test]
    fn shrink_helpers_move_toward_small() {
        assert!(shrink_u64(0).is_empty());
        assert_eq!(shrink_u64(1), vec![0]);
        assert!(shrink_u64(10).contains(&5));
        let candidates = shrink_vec(&[1, 2, 3]);
        assert!(candidates.iter().all(|c| c.len() < 3));
        assert!(candidates.contains(&vec![2, 3]));
    }
}
