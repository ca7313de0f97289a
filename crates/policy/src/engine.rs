//! The rule engine: compiled script + sustained-condition tracking.

use crate::ast::{ActionCall, Expr, Script};
use crate::eval::{eval, MetricSource, Value};
use crate::parser::{parse, ParseError};
use crate::{PolicyAction, PolicyDecision};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A compiled policy script plus its evaluation state.
///
/// The engine is *stateless with respect to the system* (Serpentine's
/// design): all system knowledge arrives through the blackboard each
/// evaluation; the only internal state is the consecutive-hit counters that
/// implement `for N` debouncing.
///
/// The compiled script is shared: a clone holds the same script and owns
/// only its streaks, so a compiled engine can be stamped out per node.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEngine {
    script: Arc<Script>,
    // Per rule, by its position in the script (two rules may share a name):
    // subject-or-"" → consecutive true evaluations.
    streaks: Vec<BTreeMap<String, u32>>,
    // Evaluation errors from the last pass (missing metrics etc.).
    errors: Vec<String>,
}

impl PolicyEngine {
    /// Compiles a policy script.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed scripts.
    pub fn compile(source: &str) -> Result<Self, ParseError> {
        let script = parse(source)?;
        Ok(PolicyEngine {
            streaks: vec![BTreeMap::new(); script.rules.len()],
            script: Arc::new(script),
            errors: Vec::new(),
        })
    }

    /// The compiled script.
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// Evaluates every rule once: per-subject rules against each of
    /// `subjects`, global rules once. Returns the actions of rules whose
    /// conditions have held for their `for N` requirement.
    ///
    /// Rules whose conditions fail to evaluate (e.g. a metric missing for a
    /// just-created instance) are treated as *false* and recorded in
    /// [`last_errors`](Self::last_errors) — a policy must never crash the
    /// platform it governs.
    ///
    /// A pass in which nothing fires and nothing fails allocates nothing.
    pub fn evaluate(
        &mut self,
        source: &dyn MetricSource,
        subjects: &[&str],
    ) -> Vec<PolicyDecision> {
        let PolicyEngine {
            script,
            streaks,
            errors,
        } = self;
        errors.clear();
        let mut decisions = Vec::new();
        for (rule, streaks) in script.rules.iter().zip(streaks) {
            // A global rule is evaluated once, with no subject bound; its
            // streak is kept under "".
            let per_subject = rule_uses_subject(rule);
            let keys: &[&str] = if per_subject { subjects } else { &[""] };
            for &key in keys {
                let subject = per_subject.then_some(key);
                let holds = match eval(&rule.condition, source, subject) {
                    Ok(Value::Bool(b)) => b,
                    Ok(other) => {
                        errors.push(format!(
                            "rule {}: condition evaluated to {other}, not bool",
                            rule.name
                        ));
                        false
                    }
                    Err(e) => {
                        errors.push(format!("rule {}: {e}", rule.name));
                        false
                    }
                };
                let streak = match streaks.get_mut(key) {
                    Some(streak) => streak,
                    None => streaks.entry(key.to_owned()).or_insert(0),
                };
                if holds {
                    *streak += 1;
                } else {
                    *streak = 0;
                }
                if holds && *streak >= rule.sustain {
                    // Re-arm: a sustained rule fires once per sustained
                    // window, not on every subsequent evaluation.
                    *streak = 0;
                    for call in &rule.actions {
                        match resolve_action(call, source, subject) {
                            Ok(action) => decisions.push(PolicyDecision {
                                rule: rule.name.clone(),
                                subject: subject.map(str::to_owned),
                                action,
                            }),
                            Err(e) => errors.push(format!("rule {}: {e}", rule.name)),
                        }
                    }
                }
            }
        }
        decisions
    }

    /// Evaluation problems from the most recent [`evaluate`](Self::evaluate)
    /// pass.
    pub fn last_errors(&self) -> &[String] {
        &self.errors
    }

    /// Resets all sustained-condition counters (e.g. after reconfiguring).
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.streaks.iter_mut().for_each(BTreeMap::clear);
    }
}

fn rule_uses_subject(rule: &crate::ast::Rule) -> bool {
    fn expr_uses(e: &Expr) -> bool {
        match e {
            Expr::Subject => true,
            Expr::Call { args, .. } => args.iter().any(expr_uses),
            Expr::Neg(x) | Expr::Not(x) => expr_uses(x),
            Expr::Binary { lhs, rhs, .. } => expr_uses(lhs) || expr_uses(rhs),
            _ => false,
        }
    }
    expr_uses(&rule.condition) || rule.actions.iter().any(|a| a.args.iter().any(expr_uses))
}

fn resolve_action(
    call: &ActionCall,
    source: &dyn MetricSource,
    subject: Option<&str>,
) -> Result<PolicyAction, String> {
    let arg_subject = |idx: usize| -> Result<String, String> {
        match call.args.get(idx) {
            None => subject
                .map(str::to_owned)
                .ok_or_else(|| format!("{} needs a subject", call.name)),
            Some(e) => match eval(e, source, subject).map_err(|e| e.to_string())? {
                Value::Str(s) => Ok(s),
                other => Err(format!(
                    "{} subject must be a string, got {other}",
                    call.name
                )),
            },
        }
    };
    match call.name.as_str() {
        "migrate" => Ok(PolicyAction::Migrate {
            subject: arg_subject(0)?,
        }),
        "stop" => Ok(PolicyAction::Stop {
            subject: arg_subject(0)?,
        }),
        "throttle" => Ok(PolicyAction::Throttle {
            subject: arg_subject(0)?,
        }),
        "restart" => Ok(PolicyAction::Restart {
            subject: arg_subject(0)?,
        }),
        "alert" => {
            let message = match call.args.first() {
                Some(e) => match eval(e, source, subject).map_err(|e| e.to_string())? {
                    Value::Str(s) => s,
                    other => other.to_string(),
                },
                None => "policy alert".to_owned(),
            };
            Ok(PolicyAction::Alert {
                subject: subject.map(str::to_owned),
                message,
            })
        }
        "hibernate" => Ok(PolicyAction::HibernateNode),
        "wake" => Ok(PolicyAction::WakeNode),
        "scale_out" => Ok(PolicyAction::ScaleOut),
        "upgrade_wave" => Ok(PolicyAction::UpgradeWave),
        "shed_class" => {
            let class = match call.args.first() {
                Some(e) => match eval(e, source, subject).map_err(|e| e.to_string())? {
                    Value::Str(s) => s,
                    other => return Err(format!("shed_class wants a class name, got {other}")),
                },
                None => return Err("shed_class needs a class argument".to_owned()),
            };
            Ok(PolicyAction::ShedClass { class })
        }
        other => {
            let mut args = Vec::new();
            for e in &call.args {
                args.push(
                    eval(e, source, subject)
                        .map_err(|e| e.to_string())?
                        .to_string(),
                );
            }
            Ok(PolicyAction::Custom {
                name: other.to_owned(),
                subject: subject.map(str::to_owned),
                args,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blackboard;

    #[test]
    fn per_subject_rule_fires_for_each_matching_subject() {
        let mut e =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 then migrate($i) }").unwrap();
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.9);
        bb.set_subject_metric("b", "cpu", 0.1);
        bb.set_subject_metric("c", "cpu", 0.7);
        let d = e.evaluate(&bb, &["a", "b", "c"]);
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
        assert!(e.last_errors().is_empty());
    }

    #[test]
    fn sustain_debounces_and_rearms() {
        let mut e =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 for 3 then stop($i) }").unwrap();
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.9);
        let s = ["a"];
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
            let messages = e.evaluate(&bb, &[]).into_iter().map(|d| match d.action {
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
        let d = e.evaluate(&bb, &["a", "b", "c"]);
        assert_eq!(d.len(), 1, "not once per subject");
        assert_eq!(d[0].action, PolicyAction::HibernateNode);
        assert_eq!(d[0].subject, None);
    }

    #[test]
    fn missing_metrics_are_false_not_fatal() {
        let mut e = PolicyEngine::compile("rule hot { when cpu($i) > 0.5 then stop($i) }").unwrap();
        let bb = Blackboard::new();
        let d = e.evaluate(&bb, &["ghost"]);
        assert!(d.is_empty());
        assert_eq!(e.last_errors().len(), 1);
        assert!(e.last_errors()[0].contains("unknown metric"));
    }

    #[test]
    fn multiple_actions_fire_in_order() {
        let mut e = PolicyEngine::compile(
            r#"rule bad { when memory($i) > 100 then stop($i); alert("oom") }"#,
        )
        .unwrap();
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "memory", 200.0);
        let d = e.evaluate(&bb, &["a"]);
        assert_eq!(d.len(), 2);
        assert!(matches!(d[0].action, PolicyAction::Stop { .. }));
        assert!(matches!(
            &d[1].action,
            PolicyAction::Alert { message, .. } if message == "oom"
        ));
    }

    #[test]
    fn custom_actions_are_forwarded() {
        let mut e = PolicyEngine::compile("rule x { when true then boost($i, 2) }").unwrap();
        let bb = Blackboard::new();
        let d = e.evaluate(&bb, &["a"]);
        assert_eq!(
            d[0].action,
            PolicyAction::Custom {
                name: "boost".into(),
                subject: Some("a".into()),
                args: vec!["a".into(), "2".into()],
            }
        );
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
        assert!(e.evaluate(&bb, &[]).is_empty(), "for 2 debounces");
        let d = e.evaluate(&bb, &[]);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].action, PolicyAction::ScaleOut);
        assert_eq!(
            d[1].action,
            PolicyAction::ShedClass {
                class: "background".into()
            }
        );
        assert!(e.last_errors().is_empty(), "{:?}", e.last_errors());
    }

    #[test]
    fn upgrade_wave_resolves_first_class() {
        let mut e = PolicyEngine::compile("rule roll { when true then upgrade_wave() }").unwrap();
        let bb = Blackboard::new();
        let d = e.evaluate(&bb, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].action, PolicyAction::UpgradeWave);
        assert!(e.last_errors().is_empty(), "{:?}", e.last_errors());
    }

    #[test]
    fn shed_class_without_argument_is_an_error() {
        let mut e = PolicyEngine::compile("rule x { when true then shed_class() }").unwrap();
        let bb = Blackboard::new();
        assert!(e.evaluate(&bb, &[]).is_empty());
        assert!(e.last_errors()[0].contains("needs a class argument"));
    }

    #[test]
    fn non_bool_condition_is_an_error_not_a_panic() {
        let mut e = PolicyEngine::compile("rule x { when 1 + 1 then stop(\"a\") }").unwrap();
        let bb = Blackboard::new();
        assert!(e.evaluate(&bb, &[]).is_empty());
        assert!(e.last_errors()[0].contains("not bool"));
    }

    #[test]
    fn a_clone_shares_the_script_and_keeps_its_own_streaks() {
        let mut e =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 for 2 then stop($i) }").unwrap();
        let mut copy = e.clone();
        assert!(std::ptr::eq(e.script(), copy.script()));
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.9);
        let s = ["a"];
        assert!(e.evaluate(&bb, &s).is_empty());
        assert!(copy.evaluate(&bb, &s).is_empty(), "the copy's first hit");
        assert_eq!(e.evaluate(&bb, &s).len(), 1);
        bb.set_subject_metric("a", "cpu", 0.1);
        assert!(copy.evaluate(&bb, &s).is_empty(), "the copy's dip");
        bb.set_subject_metric("a", "cpu", 0.9);
        assert!(copy.evaluate(&bb, &s).is_empty());
        assert_eq!(copy.evaluate(&bb, &s).len(), 1);
    }

    #[test]
    fn reset_clears_streaks() {
        let mut e =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 for 2 then stop($i) }").unwrap();
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.9);
        let s = ["a"];
        assert!(e.evaluate(&bb, &s).is_empty());
        e.reset();
        assert!(e.evaluate(&bb, &s).is_empty(), "streak restarted");
        assert_eq!(e.evaluate(&bb, &s).len(), 1);
    }
}
