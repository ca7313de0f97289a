//! Hierarchical (cascading) policy composition.
//!
//! §3.3: *"The cascading capabilities allow instances of the module to be
//! composed on each other and therefore supporting different levels of
//! control of the system by hiding unnecessary or unwanted details on
//! different hierarchies."*
//!
//! A [`Hierarchy`] is an ordered list of [`Level`]s, each with its own
//! engine and a *scope* restricting which subjects it may see. Levels are
//! evaluated bottom-up; an [`Alert`](crate::PolicyAction::Alert) decision at
//! one level is *escalated*: re-published as a global metric
//! (`alerts_<level>`) visible to the levels above, so a cluster-level policy
//! can react to the aggregate behaviour of node-level policies without
//! seeing their subjects.

use crate::{Blackboard, PolicyAction, PolicyDecision, PolicyEngine, Streaks};
use std::collections::BTreeMap;

/// One level of the cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// The level's name (e.g. `"node"`, `"cluster"`).
    pub name: String,
    /// Its engine.
    pub engine: PolicyEngine,
    /// Subject prefix this level may see (`""` sees everything).
    pub scope: String,
    // The streaks of the subjects of the level's last pass.
    streaks: BTreeMap<String, Streaks>,
}

/// A decision tagged with the level that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelDecision {
    /// The producing level's name.
    pub level: String,
    /// The decision.
    pub decision: PolicyDecision,
}

/// An ordered cascade of policy levels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hierarchy {
    levels: Vec<Level>,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a level (builder style). Levels are evaluated in insertion
    /// order, lowest first.
    pub fn with_level(mut self, name: &str, engine: PolicyEngine, scope: &str) -> Self {
        self.levels.push(Level {
            name: name.to_owned(),
            engine,
            scope: scope.to_owned(),
            streaks: BTreeMap::new(),
        });
        self
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if the cascade has no levels.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Evaluates every level bottom-up against `blackboard`, scoping each
    /// level's subject list and escalating alert counts to the levels
    /// above as `alerts_<level>()` global metrics. A subject keeps its
    /// streaks at a level while it is in every pass the level sees.
    pub fn evaluate(
        &mut self,
        blackboard: &mut Blackboard,
        subjects: &[&str],
    ) -> Vec<LevelDecision> {
        let mut out = Vec::new();
        for level in &mut self.levels {
            let scoped: Vec<&str> = subjects
                .iter()
                .filter(|s| s.starts_with(&level.scope))
                .copied()
                .collect();
            let held = &mut level.streaks;
            held.retain(|name, _| scoped.contains(&name.as_str()));
            for &s in &scoped {
                if !held.contains_key(s) {
                    held.insert(s.to_owned(), level.engine.streaks());
                }
            }
            let scoped: Vec<(&str, &Streaks)> = scoped.iter().map(|&s| (s, &held[s])).collect();
            let decisions = level.engine.evaluate(blackboard, &scoped);
            let alerts = decisions
                .iter()
                .filter(|d| matches!(d.action, PolicyAction::Alert { .. }))
                .count();
            blackboard.set_global_metric(&format!("alerts_{}", level.name), alerts as f64);
            out.extend(decisions.into_iter().map(|decision| LevelDecision {
                level: level.name.clone(),
                decision,
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricSource;

    #[test]
    fn levels_scope_their_subjects() {
        let node =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 then alert(\"hot\") }").unwrap();
        let cluster = PolicyEngine::compile(
            "rule storm { when alerts_node() >= 2 then alert(\"alert storm\") }",
        )
        .unwrap();
        let mut h = Hierarchy::new()
            .with_level("node", node, "n0/")
            .with_level("cluster", cluster, "");
        let mut bb = Blackboard::new();
        bb.set_subject_metric("n0/a", "cpu", 0.9);
        bb.set_subject_metric("n0/b", "cpu", 0.8);
        bb.set_subject_metric("n1/c", "cpu", 0.9); // out of scope for "node"
        let decisions = h.evaluate(&mut bb, &["n0/a", "n0/b", "n1/c"]);
        // Two node-level alerts (n0/a, n0/b) escalate into one cluster
        // alert; n1/c was invisible to the node level.
        let node_alerts: Vec<_> = decisions.iter().filter(|d| d.level == "node").collect();
        let cluster_alerts: Vec<_> = decisions.iter().filter(|d| d.level == "cluster").collect();
        assert_eq!(node_alerts.len(), 2);
        assert_eq!(cluster_alerts.len(), 1);
        assert!(matches!(
            &cluster_alerts[0].decision.action,
            PolicyAction::Alert { message, .. } if message == "alert storm"
        ));
    }

    #[test]
    fn empty_hierarchy_is_quiet() {
        let mut h = Hierarchy::new();
        assert!(h.is_empty());
        let mut bb = Blackboard::new();
        assert!(h.evaluate(&mut bb, &[]).is_empty());
    }

    #[test]
    fn escalation_metric_resets_each_pass() {
        let node =
            PolicyEngine::compile("rule hot { when cpu($i) > 0.5 then alert(\"x\") }").unwrap();
        let mut h = Hierarchy::new().with_level("node", node, "");
        let mut bb = Blackboard::new();
        bb.set_subject_metric("a", "cpu", 0.9);
        h.evaluate(&mut bb, &["a"]);
        assert_eq!(bb.metric("alerts_node", None), Some(1.0));
        bb.set_subject_metric("a", "cpu", 0.1);
        h.evaluate(&mut bb, &["a"]);
        assert_eq!(bb.metric("alerts_node", None), Some(0.0));
    }
}
