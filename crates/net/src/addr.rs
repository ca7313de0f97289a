//! Virtual IP addresses, ports and the cluster-wide IP binding table.
//!
//! Section 3.2 of the paper discusses *service localization* after a
//! migration: a service is reachable at an `IP address : port` pair, and
//! either the IP is unique to the service and travels with it (Figure 5) or
//! the IP is shared and a fault-tolerant ipvs layer redirects requests
//! (Figure 6). [`IpBindings`] is the substrate both schemes share: a table of
//! which node currently answers for which IP.

use crate::NodeId;
use std::collections::HashMap;
use std::fmt;

/// A simulated IPv4-style address.
///
/// Only identity matters for the simulation; the dotted-quad rendering is for
/// logs and experiment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// A convenience constructor from dotted-quad components.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}",
            (self.0 >> 24) & 0xff,
            (self.0 >> 16) & 0xff,
            (self.0 >> 8) & 0xff,
            self.0 & 0xff
        )
    }
}

/// A simulated transport port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port(pub u16);

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An `IP:port` endpoint, the unit of service localization in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SocketAddr {
    /// The IP half of the endpoint.
    pub ip: IpAddr,
    /// The port half of the endpoint.
    pub port: Port,
}

impl SocketAddr {
    /// Creates an endpoint.
    pub const fn new(ip: IpAddr, port: Port) -> Self {
        SocketAddr { ip, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Errors returned by [`IpBindings`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// The IP is already bound to another node; it must be released first
    /// (Figure 5: "the node currently holding the service \[must\] release the
    /// IP address").
    AlreadyBound {
        /// The node currently holding the address.
        holder: NodeId,
    },
    /// The IP is not bound anywhere.
    NotBound,
    /// The caller does not hold the binding it tried to release.
    NotHolder {
        /// The node that actually holds the address.
        holder: NodeId,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::AlreadyBound { holder } => {
                write!(f, "ip already bound to {holder}")
            }
            BindError::NotBound => write!(f, "ip is not bound"),
            BindError::NotHolder { holder } => {
                write!(f, "caller does not hold binding (holder is {holder})")
            }
        }
    }
}

impl std::error::Error for BindError {}

/// The cluster-wide table of virtual IP ownership.
///
/// This models the invariant real networks enforce via ARP: a given IP is
/// answered by at most one interface at a time. Migration of a uniquely
/// addressed service is *release on the source, bind on the destination*;
/// the window between the two is exactly the request-loss window experiment
/// **E7** measures.
#[derive(Debug, Clone, Default)]
pub struct IpBindings {
    owners: HashMap<IpAddr, NodeId>,
}

impl IpBindings {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `ip` to `node`.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::AlreadyBound`] if another node holds the address.
    /// Re-binding to the same holder is idempotent.
    pub fn bind(&mut self, ip: IpAddr, node: NodeId) -> Result<(), BindError> {
        match self.owners.get(&ip) {
            Some(&holder) if holder != node => Err(BindError::AlreadyBound { holder }),
            _ => {
                self.owners.insert(ip, node);
                Ok(())
            }
        }
    }

    /// Releases `ip`, which must be held by `node`.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::NotBound`] if nobody holds the address and
    /// [`BindError::NotHolder`] if a different node does.
    pub fn release(&mut self, ip: IpAddr, node: NodeId) -> Result<(), BindError> {
        match self.owners.get(&ip) {
            None => Err(BindError::NotBound),
            Some(&holder) if holder != node => Err(BindError::NotHolder { holder }),
            Some(_) => {
                self.owners.remove(&ip);
                Ok(())
            }
        }
    }

    /// Forcibly removes every binding held by `node` (crash semantics),
    /// returning the orphaned addresses so a failover manager can re-home
    /// them.
    pub fn release_all(&mut self, node: NodeId) -> Vec<IpAddr> {
        let orphans: Vec<IpAddr> = self
            .owners
            .iter()
            .filter(|(_, &n)| n == node)
            .map(|(&ip, _)| ip)
            .collect();
        for ip in &orphans {
            self.owners.remove(ip);
        }
        orphans
    }

    /// The node currently answering for `ip`, if any.
    pub fn owner_of(&self, ip: IpAddr) -> Option<NodeId> {
        self.owners.get(&ip).copied()
    }

    /// All addresses currently bound by `node`.
    #[cfg(test)]
    pub(crate) fn bound_by(&self, node: NodeId) -> Vec<IpAddr> {
        let mut v: Vec<IpAddr> = self
            .owners
            .iter()
            .filter(|(_, &n)| n == node)
            .map(|(&ip, _)| ip)
            .collect();
        v.sort();
        v
    }

    /// Number of bound addresses.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True if no address is bound.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: IpAddr = IpAddr::new(10, 0, 0, 1);

    #[test]
    fn display_renders_dotted_quad() {
        assert_eq!(IP.to_string(), "10.0.0.1");
        assert_eq!(SocketAddr::new(IP, Port(8080)).to_string(), "10.0.0.1:8080");
    }

    #[test]
    fn bind_then_release_round_trip() {
        let mut t = IpBindings::new();
        t.bind(IP, NodeId(0)).unwrap();
        assert_eq!(t.owner_of(IP), Some(NodeId(0)));
        t.release(IP, NodeId(0)).unwrap();
        assert_eq!(t.owner_of(IP), None);
        assert!(t.is_empty());
    }

    #[test]
    fn double_bind_is_rejected() {
        let mut t = IpBindings::new();
        t.bind(IP, NodeId(0)).unwrap();
        assert_eq!(
            t.bind(IP, NodeId(1)),
            Err(BindError::AlreadyBound { holder: NodeId(0) })
        );
        // Idempotent re-bind by the holder is fine.
        t.bind(IP, NodeId(0)).unwrap();
    }

    #[test]
    fn release_requires_holder() {
        let mut t = IpBindings::new();
        assert_eq!(t.release(IP, NodeId(0)), Err(BindError::NotBound));
        t.bind(IP, NodeId(0)).unwrap();
        assert_eq!(
            t.release(IP, NodeId(1)),
            Err(BindError::NotHolder { holder: NodeId(0) })
        );
    }

    #[test]
    fn crash_releases_everything_held() {
        let mut t = IpBindings::new();
        let ip2 = IpAddr::new(10, 0, 0, 2);
        let ip3 = IpAddr::new(10, 0, 0, 3);
        t.bind(IP, NodeId(0)).unwrap();
        t.bind(ip2, NodeId(0)).unwrap();
        t.bind(ip3, NodeId(1)).unwrap();
        let mut orphans = t.release_all(NodeId(0));
        orphans.sort();
        assert_eq!(orphans, vec![IP, ip2]);
        assert_eq!(t.owner_of(ip3), Some(NodeId(1)));
        assert_eq!(t.bound_by(NodeId(1)), vec![ip3]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn migration_is_release_then_bind() {
        let mut t = IpBindings::new();
        t.bind(IP, NodeId(0)).unwrap();
        // Figure 5: old node releases, new node binds.
        t.release(IP, NodeId(0)).unwrap();
        t.bind(IP, NodeId(1)).unwrap();
        assert_eq!(t.owner_of(IP), Some(NodeId(1)));
    }
}
