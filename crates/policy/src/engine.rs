//! The rule engine: compiled script + sustained-condition tracking.

use crate::ast::{ActionCall, Rule, Script};
use crate::eval::{eval, EvalError, MetricSource, Subject, Value};
use crate::parser::{parse, ParseError};
use crate::{PolicyAction, PolicyDecision, Verb};
use std::cell::Cell;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A compiled policy script plus its evaluation state.
///
/// The engine is *stateless with respect to the system* (Serpentine's
/// design): all system knowledge arrives through a [`MetricSource`] and
/// the subjects of each evaluation. Its own state is the `for N` streaks of
/// its global rules and the last pass's errors; each subject carries the
/// streaks of the per-subject rules ([`Streaks`]), so they live exactly as
/// long as whoever holds the subject keeps it.
///
/// The compiled script is shared: a clone holds the same script and owns
/// only its streaks, so a compiled engine can be stamped out per node.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEngine {
    script: Arc<Script>,
    // The global rules' streaks, by rule position (a per-subject rule's
    // slot stays 0).
    global: Box<[u32]>,
    // The last pass's errors.
    errors: Errors,
}

/// One subject's `for N` streaks: the consecutive passes in which each
/// rule of a script held for it, by the rule's position in the script (two
/// rules may share a name).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Streaks(Box<[Cell<u32>]>);

impl PolicyEngine {
    /// Compiles a policy script.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed scripts, and for a script
    /// whose `then` clause names an action that is not a [`Verb`].
    pub fn compile(source: &str) -> Result<Self, ParseError> {
        let script = Arc::new(parse(source)?);
        Ok(PolicyEngine {
            global: vec![0; script.rules.len()].into(),
            script,
            errors: Errors::default(),
        })
    }

    /// The compiled script.
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// Fresh streaks for a subject this engine (or a clone of it) will
    /// evaluate: one counter per rule, none held yet.
    pub fn streaks(&self) -> Streaks {
        Streaks(self.script.rules.iter().map(|_| Cell::new(0)).collect())
    }

    /// Evaluates every rule once: per-subject rules for each of
    /// `subjects`, in order, global rules once. Returns the actions of
    /// rules whose conditions have held for their `for N` requirement.
    ///
    /// A condition that reads a metric its subject has not been sampled
    /// for yet (a just-created instance's) is *false* for that subject.
    /// Rules whose conditions fail to evaluate (e.g. a metric no subject
    /// has) are treated as *false* too, and recorded in
    /// [`last_errors`](Self::last_errors) — a policy must never crash the
    /// platform it governs.
    ///
    /// Each subject's streaks are its own, made by
    /// [`streaks`](Self::streaks): one that leaves and comes back with
    /// fresh ones is debounced afresh. A pass in which nothing fires
    /// allocates nothing, failing rules included, once the error buffer
    /// has grown to the longest pass's errors.
    pub fn evaluate<S: Subject>(
        &mut self,
        source: &dyn MetricSource,
        subjects: &[S],
    ) -> Vec<PolicyDecision> {
        let PolicyEngine {
            script,
            global,
            errors,
        } = self;
        errors.clear();
        let mut pass = Pass {
            source,
            errors,
            decisions: Vec::new(),
        };
        for (i, rule) in script.rules.iter().enumerate() {
            if rule.uses_subject() {
                for subject in subjects {
                    // Streaks another script made lack this rule's slot.
                    let fresh = Cell::new(0);
                    let streak = subject.streaks().0.get(i).unwrap_or(&fresh);
                    pass.run(rule, Some(subject as &dyn Subject), streak);
                }
            } else {
                // A global rule is evaluated once, with no subject bound.
                pass.run(rule, None, Cell::from_mut(&mut global[i]));
            }
        }
        pass.decisions
    }

    /// Evaluation problems from the most recent [`evaluate`](Self::evaluate)
    /// pass, in the order they arose.
    pub fn last_errors(&self) -> impl Iterator<Item = &str> {
        let Errors { text, ends } = &self.errors;
        let starts = std::iter::once(0).chain(ends.iter().copied());
        starts.zip(ends).map(|(start, &end)| &text[start..end])
    }
}

/// One pass under way: what it reads, the errors it writes and the
/// decisions it has made.
struct Pass<'a> {
    source: &'a dyn MetricSource,
    errors: &'a mut Errors,
    decisions: Vec<PolicyDecision>,
}

/// A pass's errors, written one after another into one buffer that keeps
/// its capacity, and where each one ends.
#[derive(Debug, Clone, Default, PartialEq)]
struct Errors {
    text: String,
    ends: Vec<usize>,
}

impl Errors {
    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    fn push(&mut self, error: fmt::Arguments<'_>) {
        // Writing into a `String` cannot fail.
        let _ = self.text.write_fmt(error);
        self.ends.push(self.text.len());
    }
}

impl Pass<'_> {
    /// Evaluates `rule` once, for `subject` or globally, against its
    /// streak, and takes its decisions when it fires.
    fn run(&mut self, rule: &Rule, subject: Option<&dyn Subject>, streak: &Cell<u32>) {
        let holds = match eval(&rule.condition, self.source, subject) {
            Ok(Value::Bool(b)) => b,
            Err(EvalError::NotSampled { .. }) => false,
            Ok(other) => {
                self.errors.push(format_args!(
                    "rule {}: condition evaluated to {other}, not bool",
                    rule.name
                ));
                false
            }
            Err(e) => {
                self.errors.push(format_args!("rule {}: {e}", rule.name));
                false
            }
        };
        streak.set(if holds { streak.get() + 1 } else { 0 });
        if holds && streak.get() >= rule.sustain {
            // Re-arm: a sustained rule fires once per sustained window, not
            // on every subsequent evaluation.
            streak.set(0);
            for call in &rule.actions {
                match resolve_action(call, self.source, subject) {
                    Ok(action) => self.decisions.push(PolicyDecision {
                        rule: rule.name.clone(),
                        subject: subject.map(|s| s.name().to_owned()),
                        action,
                    }),
                    Err(e) => self.errors.push(format_args!("rule {}: {e}", rule.name)),
                }
            }
        }
    }
}

fn resolve_action(
    call: &ActionCall,
    source: &dyn MetricSource,
    subject: Option<&dyn Subject>,
) -> Result<PolicyAction, String> {
    let verb = call.verb.name();
    let arg = |idx: usize| -> Result<Option<Value>, String> {
        call.args
            .get(idx)
            .map(|e| eval(e, source, subject).map_err(|e| e.to_string()))
            .transpose()
    };
    let arg_subject = || -> Result<String, String> {
        match arg(0)? {
            None => subject
                .map(|s| s.name().to_owned())
                .ok_or_else(|| format!("{verb} needs a subject")),
            Some(Value::Str(s)) => Ok(s),
            Some(other) => Err(format!("{verb} subject must be a string, got {other}")),
        }
    };
    let class = || -> Result<String, String> {
        match arg(0)? {
            Some(Value::Str(s)) => Ok(s),
            Some(other) => Err(format!("{verb} wants a class name, got {other}")),
            None => Err(format!("{verb} needs a class argument")),
        }
    };
    Ok(match call.verb {
        Verb::Migrate => PolicyAction::Migrate {
            subject: arg_subject()?,
        },
        Verb::Stop => PolicyAction::Stop {
            subject: arg_subject()?,
        },
        Verb::Throttle => PolicyAction::Throttle {
            subject: arg_subject()?,
        },
        Verb::Restart => PolicyAction::Restart {
            subject: arg_subject()?,
        },
        Verb::Alert => PolicyAction::Alert {
            subject: subject.map(|s| s.name().to_owned()),
            message: match arg(0)? {
                Some(Value::Str(s)) => s,
                Some(other) => other.to_string(),
                None => "policy alert".to_owned(),
            },
        },
        Verb::Hibernate => PolicyAction::HibernateNode,
        Verb::ScaleOut => PolicyAction::ScaleOut,
        Verb::ShedClass => PolicyAction::ShedClass { class: class()? },
        Verb::StopShed => PolicyAction::StopShed { class: class()? },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Blackboard, Named};

    impl PolicyEngine {
        /// Resets the global rules' sustained-condition counters.
        fn reset(&mut self) {
            self.global.fill(0);
        }
    }

    /// No subject: a pass of global rules only.
    const GLOBAL: &[Named<'static>] = &[];

    #[test]
    fn per_subject_rule_fires_for_each_matching_subject() {
        let mut e =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 then migrate($i) }").unwrap();
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.9);
        bb.set_subject_metric("b", "cpu", 0.1);
        bb.set_subject_metric("c", "cpu", 0.7);
        let streaks = [e.streaks(), e.streaks(), e.streaks()];
        let subjects = [("a", &streaks[0]), ("b", &streaks[1]), ("c", &streaks[2])];
        let d = e.evaluate(&bb, &subjects);
        assert_eq!(d.len(), 2);
        assert_eq!(
            d[0].action,
            PolicyAction::Migrate {
                subject: "a".into()
            }
        );
        assert_eq!(
            d[1].action,
            PolicyAction::Migrate {
                subject: "c".into()
            }
        );
        assert_eq!(e.last_errors().count(), 0);
    }

    #[test]
    fn sustain_debounces_and_rearms() {
        let mut e =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 for 3 then stop($i) }").unwrap();
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.9);
        let a = e.streaks();
        let s = [("a", &a)];
        assert!(e.evaluate(&bb, &s).is_empty(), "1st hit");
        assert!(e.evaluate(&bb, &s).is_empty(), "2nd hit");
        assert_eq!(e.evaluate(&bb, &s).len(), 1, "3rd hit fires");
        // Counter re-armed: two more quiet evaluations before next firing.
        assert!(e.evaluate(&bb, &s).is_empty());
        assert!(e.evaluate(&bb, &s).is_empty());
        assert_eq!(e.evaluate(&bb, &s).len(), 1);
        // A dip resets the streak.
        bb.set_subject_metric("a", "cpu", 0.1);
        assert!(e.evaluate(&bb, &s).is_empty());
        bb.set_subject_metric("a", "cpu", 0.9);
        assert!(e.evaluate(&bb, &s).is_empty());
        assert!(e.evaluate(&bb, &s).is_empty());
        assert_eq!(e.evaluate(&bb, &s).len(), 1);
    }

    #[test]
    fn rules_with_one_name_keep_their_own_streaks() {
        // The parser accepts two rules called `r`; each debounces by itself.
        let mut e = PolicyEngine::compile(
            r#"rule r { when load() > 1 for 2 then alert("first") }
               rule r { when load() > 1 for 2 then alert("second") }"#,
        )
        .unwrap();
        let mut bb = Blackboard::new();
        bb.set_global_metric("load", 2.0);
        let mut fired = Vec::new();
        for _ in 0..4 {
            let messages = e.evaluate(&bb, GLOBAL).into_iter().map(|d| match d.action {
                PolicyAction::Alert { message, .. } => message,
                other => panic!("unexpected action {other:?}"),
            });
            fired.push(messages.collect::<Vec<_>>());
        }
        let both = vec!["first".to_owned(), "second".to_owned()];
        assert_eq!(fired, [vec![], both.clone(), vec![], both]);
    }

    #[test]
    fn global_rules_evaluate_once() {
        let mut e =
            PolicyEngine::compile("rule idle { when node_cpu() < 0.2 then hibernate() }").unwrap();
        let mut bb = Blackboard::new();
        bb.set_global_metric("node_cpu", 0.1);
        let streaks = e.streaks();
        let d = e.evaluate(&bb, &[("a", &streaks), ("b", &streaks), ("c", &streaks)]);
        assert_eq!(d.len(), 1, "not once per subject");
        assert_eq!(d[0].action, PolicyAction::HibernateNode);
        assert_eq!(d[0].subject, None);
    }

    #[test]
    fn missing_metrics_are_false_not_fatal() {
        let mut e = PolicyEngine::compile("rule hot { when cpu($i) > 0.5 then stop($i) }").unwrap();
        let bb = Blackboard::new();
        let ghost = e.streaks();
        let d = e.evaluate(&bb, &[("ghost", &ghost)]);
        assert!(d.is_empty());
        let errors: Vec<_> = e.last_errors().collect();
        assert_eq!(errors, ["rule hot: unknown metric cpu(ghost)"]);
    }

    #[test]
    fn multiple_actions_fire_in_order() {
        let mut e = PolicyEngine::compile(
            r#"rule bad { when memory($i) > 100 then stop($i); alert("oom") }"#,
        )
        .unwrap();
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "memory", 200.0);
        let a = e.streaks();
        let d = e.evaluate(&bb, &[("a", &a)]);
        assert_eq!(d.len(), 2);
        assert!(matches!(d[0].action, PolicyAction::Stop { .. }));
        assert!(matches!(
            &d[1].action,
            PolicyAction::Alert { message, .. } if message == "oom"
        ));
    }

    #[test]
    fn unknown_verbs_fail_to_compile_naming_the_verb() {
        for (verb, script) in [
            ("wake", "rule w { when true then wake() }"),
            ("upgrade_wave", "rule u { when true then upgrade_wave() }"),
            (
                "migrate_all",
                "rule m { when true then migrate_all(); hibernate() }",
            ),
            ("migrat", "rule m { when cpu($i) > 1 then migrat($i) }"),
        ] {
            let error = PolicyEngine::compile(script).unwrap_err();
            assert_eq!(error.message, format!("unknown action `{verb}`"));
            assert_eq!(&script[error.at..error.at + verb.len()], verb);
        }
    }

    #[test]
    fn every_verb_compiles() {
        for verb in Verb::ALL {
            let script = format!("rule r {{ when true then {}(\"x\") }}", verb.name());
            let engine = PolicyEngine::compile(&script).unwrap();
            assert_eq!(engine.script().rules[0].actions[0].verb, verb);
        }
    }

    #[test]
    fn overload_actions_resolve_first_class() {
        let mut e = PolicyEngine::compile(
            r#"rule knee {
                when p95_latency_us() > 250000 for 2
                then scale_out(); shed_class("background")
            }"#,
        )
        .unwrap();
        let mut bb = Blackboard::new();
        bb.set_global_metric("p95_latency_us", 400_000.0);
        assert!(e.evaluate(&bb, GLOBAL).is_empty(), "for 2 debounces");
        let d = e.evaluate(&bb, GLOBAL);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].action, PolicyAction::ScaleOut);
        assert_eq!(
            d[1].action,
            PolicyAction::ShedClass {
                class: "background".into()
            }
        );
        assert_eq!(e.last_errors().count(), 0);
    }

    #[test]
    fn stop_shed_resolves_first_class() {
        let mut e =
            PolicyEngine::compile(r#"rule lift { when true then stop_shed("background") }"#)
                .unwrap();
        let bb = Blackboard::new();
        let d = e.evaluate(&bb, GLOBAL);
        assert_eq!(d.len(), 1);
        assert_eq!(
            d[0].action,
            PolicyAction::StopShed {
                class: "background".into()
            }
        );
        assert_eq!(e.last_errors().count(), 0);
    }

    #[test]
    fn shed_class_without_argument_is_an_error() {
        let mut e = PolicyEngine::compile("rule x { when true then shed_class() }").unwrap();
        let bb = Blackboard::new();
        assert!(e.evaluate(&bb, GLOBAL).is_empty());
        let errors: Vec<_> = e.last_errors().collect();
        assert_eq!(errors, ["rule x: shed_class needs a class argument"]);
    }

    #[test]
    fn non_bool_condition_is_an_error_not_a_panic() {
        let mut e = PolicyEngine::compile("rule x { when 1 + 1 then stop(\"a\") }").unwrap();
        let bb = Blackboard::new();
        assert!(e.evaluate(&bb, GLOBAL).is_empty());
        let errors: Vec<_> = e.last_errors().collect();
        assert_eq!(errors, ["rule x: condition evaluated to 2, not bool"]);
    }

    #[test]
    fn a_clone_shares_the_script_and_keeps_its_own_streaks() {
        let mut e =
            PolicyEngine::compile("rule hot { when load() > 0.5 for 2 then hibernate() }").unwrap();
        let mut copy = e.clone();
        assert!(std::ptr::eq(e.script(), copy.script()));
        let mut bb = Blackboard::new();
        bb.set_global_metric("load", 0.9);
        assert!(e.evaluate(&bb, GLOBAL).is_empty());
        assert!(
            copy.evaluate(&bb, GLOBAL).is_empty(),
            "the copy's first hit"
        );
        assert_eq!(e.evaluate(&bb, GLOBAL).len(), 1);
        bb.set_global_metric("load", 0.1);
        assert!(copy.evaluate(&bb, GLOBAL).is_empty(), "the copy's dip");
        bb.set_global_metric("load", 0.9);
        assert!(copy.evaluate(&bb, GLOBAL).is_empty());
        assert_eq!(copy.evaluate(&bb, GLOBAL).len(), 1);
    }

    #[test]
    fn reset_clears_streaks() {
        let mut e =
            PolicyEngine::compile("rule hot { when load() > 0.5 for 2 then hibernate() }").unwrap();
        let mut bb = Blackboard::new();
        bb.set_global_metric("load", 0.9);
        assert!(e.evaluate(&bb, GLOBAL).is_empty());
        e.reset();
        assert!(e.evaluate(&bb, GLOBAL).is_empty(), "streak restarted");
        assert_eq!(e.evaluate(&bb, GLOBAL).len(), 1);
    }

    #[test]
    fn a_subject_with_fresh_streaks_is_debounced_afresh() {
        let mut e =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 for 2 then stop($i) }").unwrap();
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.9);
        let held = e.streaks();
        assert!(e.evaluate(&bb, &[("a", &held)]).is_empty());
        assert_eq!(held, Streaks(Box::new([Cell::new(1)])));
        let fresh = e.streaks();
        assert!(
            e.evaluate(&bb, &[("a", &fresh)]).is_empty(),
            "counts from 1"
        );
        assert_eq!(e.evaluate(&bb, &[("a", &fresh)]).len(), 1);
    }
}
