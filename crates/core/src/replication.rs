//! Running-context replication — the paper's future work, implemented.
//!
//! §3.2 closes with: *"In the future we intend to address this by further
//! instrumenting the platform to be able to lively migrate the running
//! context of the bundles … having the running context of the bundle
//! replicated on other nodes and doing instantaneous failover in case of
//! node failures. Naturally this approach has many issues to solve, namely
//! the costs and feasibility."*
//!
//! Experiment **E9** quantifies exactly that cost/benefit trade-off across
//! four durability strategies for a stateful bundle:
//!
//! | strategy | context lost on crash | per-update overhead | failover extra cost |
//! |---|---|---|---|
//! | restart (paper baseline, [`COUNTER_ON_STOP`]) | everything since start | none | full re-materialization |
//! | periodic checkpoint ([`COUNTER_CHECKPOINT`]) | ≤ one checkpoint period | 1/k SAN writes | full re-materialization |
//! | write-through ([`COUNTER_WRITE_THROUGH`]) | nothing | one SAN write per update | full re-materialization |
//! | hot standby ([`prepare_standby`]) | per chosen durability | standby memory on another node | start-only (skips install + SAN restore) |
//!
//! [`COUNTER_ON_STOP`]: crate::workloads::COUNTER_ON_STOP
//! [`COUNTER_CHECKPOINT`]: crate::workloads::COUNTER_CHECKPOINT
//! [`COUNTER_WRITE_THROUGH`]: crate::workloads::COUNTER_WRITE_THROUGH

use crate::{CoreError, DosgiCluster};
use std::rc::Rc;

/// Pre-creates `name`'s bundles on node `standby` without starting them: a
/// **hot standby**. If `standby` later adopts the instance (failover or
/// migration), it skips the install-and-restore half of re-materialization
/// and pays only the start sweep — the "instantaneous failover" direction
/// the paper sketches.
///
/// # Errors
///
/// [`CoreError::UnknownInstance`] when the registry has no such instance,
/// [`CoreError::NoRunningNodes`] when no node is up to read the registry
/// from, [`CoreError::NodeUnavailable`] when the standby node is down, and
/// instance-manager errors (e.g. the standby already hosts it).
pub fn prepare_standby(
    cluster: &mut DosgiCluster,
    name: &str,
    standby: usize,
) -> Result<(), CoreError> {
    let descriptor = {
        let node = cluster
            .running_nodes()
            .first()
            .copied()
            .and_then(|i| cluster.node(i))
            .ok_or(CoreError::NoRunningNodes)?;
        let rec = node
            .registry()
            .record(name)
            .ok_or_else(|| CoreError::UnknownInstance(name.to_owned()))?;
        Rc::clone(&rec.descriptor)
    };
    let node = cluster
        .node_mut(standby)
        .ok_or(CoreError::NodeUnavailable(dosgi_net::NodeId(
            standby as u32,
        )))?;
    node.manager_mut().create_instance(descriptor)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, DosgiCluster};

    /// A standby's bundles never ran, so nothing of the data area is
    /// resident on it: the takeover reads the SAN and serves what the
    /// primary wrote last, not what the area held when it was prepared.
    #[test]
    fn standby_prepared_before_the_last_write_serves_it_after_takeover() {
        use crate::workloads::{self, COUNTER_SERVICE};
        use dosgi_net::SimDuration;
        use dosgi_san::Value;
        let mut c = DosgiCluster::new(3, ClusterConfig::default(), 7);
        c.run_for(SimDuration::from_millis(500));
        let descriptor =
            workloads::counter_instance_with("bank", "ctr", workloads::COUNTER_WRITE_THROUGH);
        c.deploy(descriptor, 0).unwrap();
        c.run_for(SimDuration::from_millis(500));
        let incr = |c: &mut DosgiCluster| c.call("ctr", COUNTER_SERVICE, "incr", &Value::Null);
        assert_eq!(incr(&mut c), Ok(Value::Int(1)));
        prepare_standby(&mut c, "ctr", 1).unwrap();
        assert_eq!(incr(&mut c), Ok(Value::Int(2)));
        assert_eq!(incr(&mut c), Ok(Value::Int(3)));
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(4));
        assert_eq!(c.home_of("ctr"), Some(1), "the standby took over");
        assert_eq!(incr(&mut c), Ok(Value::Int(4)));
    }

    #[test]
    fn standby_with_no_running_nodes_is_a_clean_error() {
        // Regression: this used to fabricate `NodeUnavailable(n0)` — blaming
        // a node that may not even exist — instead of naming the real
        // condition.
        let mut c = DosgiCluster::new(2, ClusterConfig::default(), 7);
        c.crash_node(0);
        c.crash_node(1);
        assert_eq!(
            prepare_standby(&mut c, "web", 0),
            Err(CoreError::NoRunningNodes)
        );
    }
}
