//! # dosgi-testkit
//!
//! The workspace's self-contained test substrate. The dependability claims
//! of this repo are only worth what its validation harness can demonstrate,
//! and that harness must run anywhere — including fully offline build
//! environments with an empty cargo registry. So this crate replaces the
//! external `rand` / `proptest` stack with small, dependency-free modules:
//!
//! * [`rng`] — a seedable xoshiro256** PRNG ([`TestRng`]), the single
//!   source of pseudo-randomness for simulations, load generation and
//!   tests. Deterministic in its seed, pinned by known-answer tests.
//! * [`prop`] — a deterministic property-testing harness: generator
//!   combinators ([`prop::Gen`]), fixed case counts, failing-seed
//!   reporting with `DOSGI_PROP_SEED` replay, and opt-in linear shrinking.
//! * [`nemesis`] — seeded, deterministic chaos schedules
//!   ([`NemesisPlan`]): crash × partition × SAN brown-out × message-loss
//!   fault timelines as pure data, well-formed by construction, for the
//!   chaos harness in `dosgi-core` to apply and check invariants against.
//! * [`json`] — a strict JSON reader ([`Json`]) so tests and check
//!   tooling can parse the telemetry snapshots and causal traces this
//!   workspace writes.
//!
//! Policy: no crate in this workspace may depend on the crates.io
//! registry. If a capability is missing, it is added here.

pub mod json;
pub mod nemesis;
pub mod prop;
pub mod rng;

pub use json::{Json, JsonError};
pub use nemesis::{NemesisConfig, NemesisOp, NemesisPlan, NemesisStep};
pub use prop::{Config as PropConfig, Gen, PropResult};
pub use rng::{mix_seed, splitmix64, TestRng};

/// Walks up from the current directory to the outermost `Cargo.toml`
/// declaring `[workspace]`, so bins and tests can locate `results/`
/// regardless of their own cwd.
pub fn workspace_root() -> std::path::PathBuf {
    let start = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let mut found = start.clone();
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                found = dir.to_path_buf();
            }
        }
    }
    found
}
