//! The watch loop: the Monitoring Module samples each local instance, the
//! Autonomic Module applies the SLA policy to the samples (paper §3.3).
//!
//! *State:* the watch records (one per local instance: its sampler window,
//! gauges and policy streaks) and the lifecycle epoch they were last
//! brought up to; the throttled instances; when the node last sampled.
//!
//! *Transitions:* a pass whose instance manager's lifecycle epoch moved
//! brings the records up to the local instances (one made per arrival); a
//! local copy leaving (undeploy, release, a stale copy dropped) drops its
//! record and its throttle at once. A due sample closes each record's
//! window and publishes it as the instance's gauges. A due policy pass, on
//! a running node, evaluates the rules over the records and executes each
//! decision: migrate, stop, restart, throttle, or hibernate (a drain, in
//! the hand-off machine); the driver-level verbs are left to the driver.
//!
//! *Invariant:* a policy pass sees exactly one record per local instance,
//! in name order, and an instance that leaves and comes back starts with
//! fresh streaks.

use super::*;
use dosgi_monitor::NodeCapacity;
use dosgi_policy::PolicyAction;

impl DosgiNode {
    /// A local copy of `name` left: its watch record and throttle go with
    /// it.
    pub(super) fn forget_local(&mut self, name: &str) {
        self.watched.remove(name);
        self.throttled.remove(name);
    }

    /// Brings the watch records up to the local instances when their
    /// lifecycle has moved: a record for each instance that arrived, none
    /// for one that left, and each record reading its instance's current
    /// descriptor. An instance whose record `forget_local` dropped while
    /// it stayed (its teardown failed) comes back with a fresh one.
    fn watch_arrivals(&mut self) {
        let epoch = self.mgr.lifecycle_epoch();
        if self.watched_at == Some(epoch) {
            return;
        }
        self.watched_at = Some(epoch);
        let mgr = &self.mgr;
        self.watched.retain(|w| mgr.instance(w.id()).is_some());
        for instance in mgr.instances() {
            let descriptor = &instance.descriptor;
            match self.watched.get_mut(&descriptor.name) {
                Some(watch) => watch.refresh(descriptor),
                None => {
                    let streaks = self.autonomic.as_ref().map(AutonomicModule::streaks);
                    let descriptor = Rc::clone(descriptor);
                    let watch = Watch::new(instance.id, descriptor, streaks.unwrap_or_default());
                    self.watched.insert(watch);
                }
            }
        }
    }

    pub(super) fn sample(&mut self, now: SimTime) {
        if now < self.sample_due {
            return;
        }
        self.sample_due = now + self.kit.config.sample_interval;
        self.watch_arrivals();
        let phases = &self.phases;
        for watch in self.watched.iter_mut() {
            let Some(instance) = self.mgr.instance(watch.id()) else {
                continue;
            };
            let recording = phases.enter(Phase::SampleRecord);
            let window = watch.observe(now, instance.usage());
            drop(recording);
            // Bridge the window into the telemetry registry as the
            // instance's gauges.
            if let Some(w) = window {
                let _publishing = phases.enter(Phase::SampleGauges);
                watch.publish(&w, &self.telemetry);
            }
        }
    }

    pub(super) fn run_autonomic(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        match &self.autonomic {
            Some(autonomic) if autonomic.due(now) && self.state == NodeState::Running => {}
            _ => return,
        }
        let phases = self.phases.clone();
        let gathering = phases.enter(Phase::PolicySubjects);
        self.watch_arrivals();
        let view = self.gcs.view();
        let node_count = view.members.len();
        let node_rank = view.members.iter().position(|m| *m == self.id).unwrap_or(0);
        drop(gathering);
        let Some(autonomic) = &mut self.autonomic else {
            return;
        };
        let decisions = phases.count_in(Phase::PolicyEval, || {
            autonomic.evaluate(
                now,
                &self.watched,
                &NodeCapacity::standard(),
                node_count,
                node_rank,
            )
        });
        for decision in decisions {
            self.events.push(NodeEvent::PolicyFired {
                at: now,
                decision: decision.clone(),
            });
            self.execute(decision.action, net, now);
        }
    }

    fn execute(&mut self, action: PolicyAction, net: &mut impl Fabric<Wire>, now: SimTime) {
        match action {
            PolicyAction::Migrate { subject } => {
                if let Some(dest) = self.choose_destination() {
                    let _ = self.migrate_away(&subject, dest, net);
                }
            }
            PolicyAction::Stop { subject } => {
                if let Some(iid) = self.mgr.find_by_name(&subject) {
                    let _ = self.mgr.stop_instance(iid);
                }
            }
            PolicyAction::Restart { subject } => {
                if let Some(iid) = self.mgr.find_by_name(&subject) {
                    let _ = self.mgr.stop_instance(iid);
                    let _ = self.mgr.start_instance(iid);
                }
            }
            PolicyAction::Throttle { subject } => {
                self.throttled.insert(subject);
            }
            PolicyAction::HibernateNode => {
                // Drain the node and hibernate once it is empty AND every
                // control message it ordered is sequenced (check_drained
                // gates on both). The node stays `Running` meanwhile.
                self.begin_drain(NodeState::Hibernated, "hibernate", net, now);
            }
            PolicyAction::Alert { .. }
            | PolicyAction::ScaleOut
            | PolicyAction::ShedClass { .. }
            | PolicyAction::StopShed { .. } => {
                // Alerts are visible through the PolicyFired event; scaling
                // out and class shedding act on the admission layer, which
                // a driver owns (E15 and E16 add a standby replica or flip
                // the shed switch).
            }
        }
    }
}
