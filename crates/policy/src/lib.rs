//! # dosgi-policy — the Autonomic Module
//!
//! §3.3 of the paper delegates SLA enforcement to an autonomic component
//! built on *Serpentine* (Matos et al., SAC 2008): stateless, composable in
//! hierarchies, with business policies written *programmatically* via
//! JSR-223 (Scripting for the Java Platform). The hierarchies (§3.3's
//! "cascading capabilities") are not reproduced: each node runs one
//! engine, and no experiment composes levels.
//!
//! This crate reproduces that component with an embedded policy-script
//! language:
//!
//! ```text
//! rule high_cpu {
//!     when cpu_share($i) > quota_cpu($i) * 1.2 for 3
//!     then migrate($i)
//! }
//! rule oom {
//!     when memory($i) > quota_mem($i)
//!     then stop($i); alert("memory quota exceeded")
//! }
//! rule consolidate {
//!     when node_cpu() < 0.15 and instance_count() > 0
//!     then hibernate()
//! }
//! ```
//!
//! * Rules are evaluated **per subject** (each virtual instance binds
//!   `$i` in turn); nullary metric functions read node-level values.
//! * `for N` requires the condition to hold on N consecutive evaluations —
//!   the debouncing every real autonomic controller needs. Each
//!   [`Subject`] carries its own [`Streaks`].
//! * Metric functions are resolved against a [`MetricSource`] and the
//!   bound [`Subject`]: a [`Blackboard`] of written values and subjects
//!   known by name, or — in the `dosgi-core` Autonomic Module — each local
//!   instance's watch record, read in place.
//! * Actions become [`PolicyAction`]s the embedding executes: the
//!   `dosgi-core` Autonomic Module migrates, stops, throttles, restarts
//!   and hibernates; the E15/E16 drivers scale out and start or stop
//!   shedding a request class; an alert is an event. The [`Verb`]s a
//!   `then` clause may name are exactly these, and a script naming any
//!   other fails to compile.
//!
//! The full pipeline:
//!
//! ```
//! use dosgi_policy::{Blackboard, PolicyEngine, PolicyAction};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = PolicyEngine::compile(
//!     "rule oom { when memory($i) > quota_mem($i) then stop($i) }",
//! )?;
//! let mut bb = Blackboard::new();
//! bb.set_subject_metric("acme", "memory", 600.0);
//! bb.set_subject_metric("acme", "quota_mem", 500.0);
//! let acme = engine.streaks();
//! let decisions = engine.evaluate(&bb, &[("acme", &acme)]);
//! assert_eq!(decisions.len(), 1);
//! assert!(matches!(decisions[0].action, PolicyAction::Stop { .. }));
//! # Ok(())
//! # }
//! ```

mod actions;
mod ast;
mod blackboard;
mod engine;
mod eval;
mod lexer;
mod parser;

pub use actions::{PolicyAction, PolicyDecision, Verb};
pub use ast::{ActionCall, Expr, Rule, Script};
pub use blackboard::Blackboard;
pub use engine::{PolicyEngine, Streaks};
pub use eval::{EvalError, MetricSource, Named, Subject};
pub use lexer::{LexError, Token};
pub use parser::ParseError;
