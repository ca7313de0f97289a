//! Expression evaluation against a metric source.

use crate::ast::{BinOp, Expr};
use crate::engine::Streaks;
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
        }
    }

    fn as_num<'a>(&self) -> Result<f64, EvalError<'a>> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(EvalError::Type {
                expected: "number",
                found: other.type_name(),
            }),
        }
    }

    fn as_bool<'a>(&self) -> Result<bool, EvalError<'a>> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::Type {
                expected: "bool",
                found: other.type_name(),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// An evaluation failure. It borrows its names from the script and the
/// subject, so a failing rule costs no allocation until it is formatted.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError<'a> {
    /// A metric function had no value for the subject.
    UnknownMetric {
        /// The metric's name.
        name: &'a str,
        /// The subject queried, if any.
        subject: Option<&'a str>,
    },
    /// A metric the subject will have once it is sampled, and has not been
    /// yet (an instance that has just arrived). A condition that reads one
    /// is false for that subject, and no error.
    NotSampled {
        /// The metric's name.
        name: &'a str,
        /// The subject queried.
        subject: &'a str,
    },
    /// A type mismatch.
    Type {
        /// What the operator needed.
        expected: &'static str,
        /// What it got.
        found: &'static str,
    },
    /// Wrong number or kind of arguments to a function.
    Arity {
        /// The function.
        name: &'a str,
        /// A description of the expectation.
        expected: &'static str,
    },
    /// `$i` used where no subject is bound (global evaluation).
    NoSubject,
}

impl fmt::Display for EvalError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownMetric { name, subject } => match subject {
                Some(s) => write!(f, "unknown metric {name}({s})"),
                None => write!(f, "unknown metric {name}()"),
            },
            EvalError::NotSampled { name, subject } => {
                write!(f, "metric {name}({subject}) not sampled yet")
            }
            EvalError::Type { expected, found } => {
                write!(f, "type error: expected {expected}, found {found}")
            }
            EvalError::Arity { name, expected } => {
                write!(f, "bad arguments to {name}: expected {expected}")
            }
            EvalError::NoSubject => write!(f, "$i used outside a per-subject rule"),
        }
    }
}

impl std::error::Error for EvalError<'_> {}

/// Where metric-function values come from — implemented by
/// [`Blackboard`](crate::Blackboard) and by anything else the embedding
/// wants to expose to scripts.
pub trait MetricSource {
    /// The value of metric `name` for `subject` (or the node-global value
    /// when `subject` is `None`), if known.
    fn metric(&self, name: &str, subject: Option<&str>) -> Option<f64>;

    /// True when `subject` has no value of metric `name` only because it
    /// has not been sampled yet. By default never.
    fn unsampled(&self, name: &str, subject: &str) -> bool {
        let _ = (name, subject);
        false
    }
}

/// What a per-subject rule is evaluated for: the name `$i` binds, the
/// subject's `for N` streaks and its metrics.
pub trait Subject {
    /// The name `$i` binds.
    fn name(&self) -> &str;

    /// The subject's streaks, made by the engine that evaluates it
    /// ([`PolicyEngine::streaks`](crate::PolicyEngine::streaks)).
    fn streaks(&self) -> &Streaks;

    /// The subject's metric `name`, what `name($i)` reads: by default what
    /// `source` holds under the subject's name. A subject that carries its
    /// metrics answers without a lookup.
    fn metric(&self, name: &str, source: &dyn MetricSource) -> Option<f64> {
        source.metric(name, Some(self.name()))
    }

    /// True when the subject has no metric `name` only because it has not
    /// been sampled yet: by default what `source` says of the subject's
    /// name.
    fn unsampled(&self, name: &str, source: &dyn MetricSource) -> bool {
        source.unsampled(name, self.name())
    }
}

/// A subject known by its name alone: its metrics are what the source
/// holds under that name.
pub type Named<'a> = (&'a str, &'a Streaks);

impl Subject for Named<'_> {
    fn name(&self) -> &str {
        self.0
    }

    fn streaks(&self) -> &Streaks {
        self.1
    }
}

/// Evaluates `expr` with `$i` bound to `subject` (or unbound for global
/// rules).
///
/// Built-in numeric functions (`min`, `max`, `abs`) are evaluated
/// directly; every other call reads a metric: a nullary call a global one
/// from `source`, a call on `$i` the bound subject's, a call on a string
/// the one `source` holds under that name.
///
/// # Errors
///
/// See [`EvalError`].
pub fn eval<'a>(
    expr: &'a Expr,
    source: &dyn MetricSource,
    subject: Option<&'a dyn Subject>,
) -> Result<Value, EvalError<'a>> {
    match expr {
        Expr::Number(n) => Ok(Value::Num(*n)),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Subject => match subject {
            Some(s) => Ok(Value::Str(s.name().to_owned())),
            None => Err(EvalError::NoSubject),
        },
        Expr::Neg(inner) => Ok(Value::Num(-eval(inner, source, subject)?.as_num()?)),
        Expr::Not(inner) => Ok(Value::Bool(!eval(inner, source, subject)?.as_bool()?)),
        Expr::Call { name, args } => eval_call(name, args, source, subject),
        Expr::Binary { op, lhs, rhs } => {
            // Short-circuit logical operators.
            match op {
                BinOp::And => {
                    return Ok(Value::Bool(
                        eval(lhs, source, subject)?.as_bool()?
                            && eval(rhs, source, subject)?.as_bool()?,
                    ))
                }
                BinOp::Or => {
                    return Ok(Value::Bool(
                        eval(lhs, source, subject)?.as_bool()?
                            || eval(rhs, source, subject)?.as_bool()?,
                    ))
                }
                _ => {}
            }
            let l = eval(lhs, source, subject)?;
            let r = eval(rhs, source, subject)?;
            match op {
                BinOp::Add => Ok(Value::Num(l.as_num()? + r.as_num()?)),
                BinOp::Sub => Ok(Value::Num(l.as_num()? - r.as_num()?)),
                BinOp::Mul => Ok(Value::Num(l.as_num()? * r.as_num()?)),
                BinOp::Div => Ok(Value::Num(l.as_num()? / r.as_num()?)),
                BinOp::Gt => Ok(Value::Bool(l.as_num()? > r.as_num()?)),
                BinOp::Lt => Ok(Value::Bool(l.as_num()? < r.as_num()?)),
                BinOp::Ge => Ok(Value::Bool(l.as_num()? >= r.as_num()?)),
                BinOp::Le => Ok(Value::Bool(l.as_num()? <= r.as_num()?)),
                BinOp::Eq => Ok(Value::Bool(values_equal(&l, &r))),
                BinOp::Ne => Ok(Value::Bool(!values_equal(&l, &r))),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
    }
}

fn values_equal(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Num(a), Value::Num(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        _ => false,
    }
}

fn eval_call<'a>(
    name: &'a str,
    args: &'a [Expr],
    source: &dyn MetricSource,
    subject: Option<&'a dyn Subject>,
) -> Result<Value, EvalError<'a>> {
    // Numeric built-ins.
    match name {
        "min" | "max" => {
            if args.len() != 2 {
                return Err(EvalError::Arity {
                    name,
                    expected: "two numbers",
                });
            }
            let a = eval(&args[0], source, subject)?.as_num()?;
            let b = eval(&args[1], source, subject)?.as_num()?;
            return Ok(Value::Num(if name == "min" { a.min(b) } else { a.max(b) }));
        }
        "abs" => {
            if args.len() != 1 {
                return Err(EvalError::Arity {
                    name,
                    expected: "one number",
                });
            }
            return Ok(Value::Num(eval(&args[0], source, subject)?.as_num()?.abs()));
        }
        _ => {}
    }
    // Metric functions: nullary (global) or unary ($i / string subject —
    // the only two expressions that yield a string, so the name is borrowed).
    let (value, queried, unsampled) = match args {
        [] => (source.metric(name, None), None, false),
        [Expr::Subject] => {
            let s = subject.ok_or(EvalError::NoSubject)?;
            let value = s.metric(name, source);
            let unsampled = value.is_none() && s.unsampled(name, source);
            (value, Some(s.name()), unsampled)
        }
        [Expr::Str(s)] => {
            let value = source.metric(name, Some(s));
            let unsampled = value.is_none() && source.unsampled(name, s);
            (value, Some(s.as_str()), unsampled)
        }
        // Anything else is no string; its own error, if it has one, is first.
        [one] => {
            eval(one, source, subject)?;
            return Err(EvalError::Arity {
                name,
                expected: "a subject ($i or string)",
            });
        }
        _ => {
            return Err(EvalError::Arity {
                name,
                expected: "zero or one argument",
            })
        }
    };
    match (value, queried) {
        (Some(value), _) => Ok(Value::Num(value)),
        (None, Some(subject)) if unsampled => Err(EvalError::NotSampled { name, subject }),
        (None, subject) => Err(EvalError::UnknownMetric { name, subject }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::collections::BTreeMap;

    struct MapSource(BTreeMap<(String, Option<String>), f64>);

    impl MetricSource for MapSource {
        fn metric(&self, name: &str, subject: Option<&str>) -> Option<f64> {
            self.0
                .get(&(name.to_owned(), subject.map(str::to_owned)))
                .copied()
        }
    }

    fn source() -> MapSource {
        let mut m = BTreeMap::new();
        m.insert(("cpu".to_owned(), Some("a".to_owned())), 0.8);
        m.insert(("quota".to_owned(), Some("a".to_owned())), 0.5);
        m.insert(("node_cpu".to_owned(), None), 0.3);
        MapSource(m)
    }

    const NONE: Option<&dyn Subject> = None;

    fn condition(src: &str) -> Expr {
        parse(&format!("rule t {{ when {src} then hibernate }}"))
            .unwrap()
            .rules
            .remove(0)
            .condition
    }

    /// Subject `a`, known by name.
    fn a(streaks: &Streaks) -> Named<'_> {
        ("a", streaks)
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = source();
        let streaks = Streaks::default();
        let a = a(&streaks);
        let e = condition("cpu($i) > quota($i) * 1.5");
        assert_eq!(eval(&e, &s, Some(&a)).unwrap(), Value::Bool(true));
        let e = condition("cpu($i) > quota($i) * 2");
        assert_eq!(eval(&e, &s, Some(&a)).unwrap(), Value::Bool(false));
        let e = condition("node_cpu() + 0.7 == 1.0");
        assert_eq!(eval(&e, &s, NONE).unwrap(), Value::Bool(true));
        let e = condition("-node_cpu() < 0");
        assert_eq!(eval(&e, &s, NONE).unwrap(), Value::Bool(true));
    }

    #[test]
    fn logic_short_circuits() {
        let s = source();
        // The rhs references a missing metric; `or` must not evaluate it.
        let e = condition("true or missing() > 1");
        assert_eq!(eval(&e, &s, NONE).unwrap(), Value::Bool(true));
        let e = condition("false and missing() > 1");
        assert_eq!(eval(&e, &s, NONE).unwrap(), Value::Bool(false));
        let e = condition("not false");
        assert_eq!(eval(&e, &s, NONE).unwrap(), Value::Bool(true));
    }

    #[test]
    fn builtins() {
        let s = source();
        let e = condition("min(3, 5) == 3 and max(3, 5) == 5 and abs(-2) == 2");
        assert_eq!(eval(&e, &s, NONE).unwrap(), Value::Bool(true));
    }

    #[test]
    fn string_subjects_work_like_dollar_i() {
        let s = source();
        let streaks = Streaks::default();
        let a = a(&streaks);
        let e = condition("cpu(\"a\") == cpu($i)");
        assert_eq!(eval(&e, &s, Some(&a)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn errors() {
        let s = source();
        let streaks = Streaks::default();
        let a = a(&streaks);
        assert!(matches!(
            eval(&condition("missing()"), &s, NONE),
            Err(EvalError::UnknownMetric { .. })
        ));
        assert!(matches!(
            eval(&condition("cpu($i)"), &s, NONE),
            Err(EvalError::NoSubject)
        ));
        assert!(matches!(
            eval(&condition("true + 1"), &s, NONE),
            Err(EvalError::Type { .. })
        ));
        assert!(matches!(
            eval(&condition("min(1, 2, 3)"), &s, NONE),
            Err(EvalError::Arity { .. })
        ));
        assert!(matches!(
            eval(&condition("cpu(1)"), &s, Some(&a)),
            Err(EvalError::Arity { .. })
        ));
        assert!(matches!(
            eval(&condition("cpu($i, $i)"), &s, Some(&a)),
            Err(EvalError::Arity { .. })
        ));
    }

    #[test]
    fn equality_across_types_is_false() {
        let s = source();
        let e = condition("\"x\" == 1");
        assert_eq!(eval(&e, &s, NONE).unwrap(), Value::Bool(false));
        let e = condition("\"x\" != 1");
        assert_eq!(eval(&e, &s, NONE).unwrap(), Value::Bool(true));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            EvalError::UnknownMetric {
                name: "cpu",
                subject: Some("a")
            }
            .to_string(),
            "unknown metric cpu(a)"
        );
        assert_eq!(
            EvalError::NoSubject.to_string(),
            "$i used outside a per-subject rule"
        );
    }
}
