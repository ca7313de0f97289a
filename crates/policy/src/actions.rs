//! Actions a policy can request.

use std::fmt;

/// A verb a rule's `then` clause may name: one per [`PolicyAction`], each
/// executed by a node or a driver. One table holds the verbs' names: the
/// parser reads a verb from it, so a script naming any other verb does not
/// compile, and a [`PolicyAction`] prints with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `migrate($i)`: [`PolicyAction::Migrate`].
    Migrate,
    /// `stop($i)`: [`PolicyAction::Stop`].
    Stop,
    /// `throttle($i)`: [`PolicyAction::Throttle`].
    Throttle,
    /// `restart($i)`: [`PolicyAction::Restart`].
    Restart,
    /// `alert("text")`: [`PolicyAction::Alert`].
    Alert,
    /// `hibernate()`: [`PolicyAction::HibernateNode`].
    Hibernate,
    /// `scale_out()`: [`PolicyAction::ScaleOut`].
    ScaleOut,
    /// `shed_class("class")`: [`PolicyAction::ShedClass`].
    ShedClass,
    /// `stop_shed("class")`: [`PolicyAction::StopShed`].
    StopShed,
}

impl Verb {
    /// Every verb.
    pub(crate) const ALL: [Verb; 9] = [
        Verb::Migrate,
        Verb::Stop,
        Verb::Throttle,
        Verb::Restart,
        Verb::Alert,
        Verb::Hibernate,
        Verb::ScaleOut,
        Verb::ShedClass,
        Verb::StopShed,
    ];

    /// The verb as a script names it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Verb::Migrate => "migrate",
            Verb::Stop => "stop",
            Verb::Throttle => "throttle",
            Verb::Restart => "restart",
            Verb::Alert => "alert",
            Verb::Hibernate => "hibernate",
            Verb::ScaleOut => "scale_out",
            Verb::ShedClass => "shed_class",
            Verb::StopShed => "stop_shed",
        }
    }

    /// The verb a script's `name` names, if any.
    pub(crate) fn from_name(name: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|verb| verb.name() == name)
    }
}

/// A concrete action the embedding (the node's Autonomic Module, or the
/// E15/E16 drivers) executes. §3.3: *"stopping a given virtual instance,
/// giving it lower priority … or swap it, if possible, to a suitable
/// node"*, plus the consolidation action from §4 and the overload
/// reactions a driver takes at the admission layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyAction {
    /// Move the instance to another node (destination chosen by the
    /// Migration Module's placement logic).
    Migrate {
        /// The instance to move.
        subject: String,
    },
    /// Stop the instance (hard SLA enforcement).
    Stop {
        /// The instance to stop.
        subject: String,
    },
    /// Reduce the instance's scheduling priority / CPU share.
    Throttle {
        /// The instance to deprioritize.
        subject: String,
    },
    /// Restart the instance.
    Restart {
        /// The instance to restart.
        subject: String,
    },
    /// Raise an operator alert.
    Alert {
        /// The subject the alert concerns, if per-subject.
        subject: Option<String>,
        /// The alert text.
        message: String,
    },
    /// Consolidate: this node should hand off its instances and power down
    /// (the paper's green-computing side effect).
    HibernateNode,
    /// Add serving capacity (wake a standby / add a replica behind the
    /// VIP) — the reaction to a sustained latency-SLO breach.
    ScaleOut,
    /// Start shedding the named request class at the admission layer
    /// (overload: sacrifice best-effort traffic to protect SLO-critical
    /// classes).
    ShedClass {
        /// The class to shed (e.g. `"background"`).
        class: String,
    },
    /// Stop shedding the named request class: the pressure has cleared.
    StopShed {
        /// The class to admit again.
        class: String,
    },
}

impl PolicyAction {
    /// The verb a script names this action with.
    fn verb(&self) -> Verb {
        match self {
            PolicyAction::Migrate { .. } => Verb::Migrate,
            PolicyAction::Stop { .. } => Verb::Stop,
            PolicyAction::Throttle { .. } => Verb::Throttle,
            PolicyAction::Restart { .. } => Verb::Restart,
            PolicyAction::Alert { .. } => Verb::Alert,
            PolicyAction::HibernateNode => Verb::Hibernate,
            PolicyAction::ScaleOut => Verb::ScaleOut,
            PolicyAction::ShedClass { .. } => Verb::ShedClass,
            PolicyAction::StopShed { .. } => Verb::StopShed,
        }
    }
}

impl fmt::Display for PolicyAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = self.verb().name();
        match self {
            PolicyAction::Migrate { subject }
            | PolicyAction::Stop { subject }
            | PolicyAction::Throttle { subject }
            | PolicyAction::Restart { subject } => write!(f, "{verb}({subject})"),
            PolicyAction::Alert { subject, message } => match subject {
                Some(s) => write!(f, "{verb}({s}, {message:?})"),
                None => write!(f, "{verb}({message:?})"),
            },
            PolicyAction::HibernateNode | PolicyAction::ScaleOut => write!(f, "{verb}()"),
            PolicyAction::ShedClass { class } | PolicyAction::StopShed { class } => {
                write!(f, "{verb}({class})")
            }
        }
    }
}

/// One firing of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// The rule that fired.
    pub rule: String,
    /// The subject the rule fired for (`None` for global rules).
    pub subject: Option<String>,
    /// The requested action.
    pub action: PolicyAction,
}

impl fmt::Display for PolicyDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.subject {
            Some(s) => write!(f, "[{}/{}] {}", self.rule, s, self.action),
            None => write!(f, "[{}] {}", self.rule, self.action),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let d = PolicyDecision {
            rule: "hot".into(),
            subject: Some("acme".into()),
            action: PolicyAction::Migrate {
                subject: "acme".into(),
            },
        };
        assert_eq!(d.to_string(), "[hot/acme] migrate(acme)");
        assert_eq!(PolicyAction::HibernateNode.to_string(), "hibernate()");
        assert_eq!(PolicyAction::ScaleOut.to_string(), "scale_out()");
        assert_eq!(
            PolicyAction::ShedClass {
                class: "background".into()
            }
            .to_string(),
            "shed_class(background)"
        );
        assert_eq!(
            PolicyAction::Alert {
                subject: None,
                message: "x".into()
            }
            .to_string(),
            "alert(\"x\")"
        );
        assert_eq!(
            PolicyAction::StopShed {
                class: "background".into()
            }
            .to_string(),
            "stop_shed(background)"
        );
    }
}
