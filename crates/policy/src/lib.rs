//! # dosgi-policy — the Autonomic Module
//!
//! §3.3 of the paper delegates SLA enforcement to an autonomic component
//! built on *Serpentine* (Matos et al., SAC 2008): stateless, composable in
//! hierarchies, with business policies written *programmatically* via
//! JSR-223 (Scripting for the Java Platform).
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
//!   the debouncing every real autonomic controller needs.
//! * Metric functions are resolved against a [`MetricSource`]: a
//!   [`Blackboard`] of written values, or — in the `dosgi-core` Autonomic
//!   Module — the Monitoring Module's windows read in place.
//! * Actions become [`PolicyAction`]s the embedding (the `dosgi-core`
//!   Autonomic Module) executes: migrate, stop, throttle, restart, alert,
//!   hibernate, wake.
//! * [`Hierarchy`] composes engines in levels with subject scopes, the
//!   paper's "cascading capabilities … different levels of control".
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
//! let decisions = engine.evaluate(&bb, &["acme"]);
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
mod hierarchy;
mod lexer;
mod parser;

pub use actions::{PolicyAction, PolicyDecision};
pub use ast::{ActionCall, Expr, Rule, Script};
pub use blackboard::Blackboard;
pub use engine::PolicyEngine;
pub use eval::{EvalError, MetricSource};
pub use hierarchy::{Hierarchy, Level, LevelDecision};
pub use lexer::{LexError, Token};
pub use parser::ParseError;
