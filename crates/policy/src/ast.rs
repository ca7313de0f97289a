//! The policy-script abstract syntax tree.

use crate::Verb;
use std::fmt;

/// An expression in a `when` clause or an action argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Number(f64),
    /// A boolean literal.
    Bool(bool),
    /// A string literal.
    Str(String),
    /// The subject variable `$i`.
    Subject,
    /// A metric-function call, e.g. `cpu_share($i)` or `node_cpu()`.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Unary negation `-x`.
    Neg(Box<Expr>),
    /// Logical `not x`.
    Not(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// Binary operators, loosest-binding last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `and`
    And,
    /// `or`
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Gt => ">",
            BinOp::Lt => "<",
            BinOp::Ge => ">=",
            BinOp::Le => "<=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Number(n) => write!(f, "{n}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Str(s) => write!(f, "{s:?}"),
            Expr::Subject => write!(f, "$i"),
            Expr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::Not(e) => write!(f, "not {e}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
        }
    }
}

/// One action invocation in a `then` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionCall {
    /// The action's verb (`migrate`, `stop`, `alert`, …).
    pub verb: Verb,
    /// Its arguments.
    pub args: Vec<Expr>,
}

impl fmt::Display for ActionCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.verb.name())?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// One `rule name { when … then … }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The rule's name.
    pub name: String,
    /// The condition.
    pub condition: Expr,
    /// Consecutive evaluations the condition must hold (`for N`; default 1).
    pub sustain: u32,
    /// Actions fired when the condition sustains.
    pub actions: Vec<ActionCall>,
}

impl Rule {
    /// True if the rule uses `$i` anywhere: it is evaluated once per
    /// subject, where a rule without it is evaluated once.
    pub(crate) fn uses_subject(&self) -> bool {
        fn expr_uses(e: &Expr) -> bool {
            match e {
                Expr::Subject => true,
                Expr::Call { args, .. } => args.iter().any(expr_uses),
                Expr::Neg(x) | Expr::Not(x) => expr_uses(x),
                Expr::Binary { lhs, rhs, .. } => expr_uses(lhs) || expr_uses(rhs),
                _ => false,
            }
        }
        expr_uses(&self.condition) || self.actions.iter().any(|a| a.args.iter().any(expr_uses))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule {} {{ when {}", self.name, self.condition)?;
        if self.sustain > 1 {
            write!(f, " for {}", self.sustain)?;
        }
        write!(f, " then ")?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " }}")
    }
}

/// A parsed policy script.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Script {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_structurally() {
        let rule = Rule {
            name: "hot".into(),
            condition: Expr::Binary {
                op: BinOp::Gt,
                lhs: Box::new(Expr::Call {
                    name: "cpu".into(),
                    args: vec![Expr::Subject],
                }),
                rhs: Box::new(Expr::Number(0.5)),
            },
            sustain: 3,
            actions: vec![ActionCall {
                verb: Verb::Migrate,
                args: vec![Expr::Subject],
            }],
        };
        assert_eq!(
            rule.to_string(),
            "rule hot { when (cpu($i) > 0.5) for 3 then migrate($i) }"
        );
    }

    #[test]
    fn uses_subject_detection() {
        let uses_subject = |script: &Script| script.rules.iter().any(Rule::uses_subject);
        let mut script = Script::default();
        assert!(!uses_subject(&script));
        script.rules.push(Rule {
            name: "global".into(),
            condition: Expr::Call {
                name: "node_cpu".into(),
                args: vec![],
            },
            sustain: 1,
            actions: vec![ActionCall {
                verb: Verb::Hibernate,
                args: vec![],
            }],
        });
        assert!(!uses_subject(&script));
        script.rules.push(Rule {
            name: "local".into(),
            condition: Expr::Not(Box::new(Expr::Call {
                name: "idle".into(),
                args: vec![Expr::Subject],
            })),
            sustain: 1,
            actions: vec![],
        });
        assert!(uses_subject(&script));
    }
}
