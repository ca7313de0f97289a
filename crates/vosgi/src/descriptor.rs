//! Instance descriptors: everything needed to (re)deploy a customer.

use crate::{ResourceQuota, SecurityPolicy};
use dosgi_osgi::PackageName;
use dosgi_san::codec::{field_len, header_len, int_len, str_len};
use dosgi_san::Value;
use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;

/// Identifies a virtual instance within an [`InstanceManager`].
///
/// [`InstanceManager`]: crate::InstanceManager
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vosgi-{}", self.0)
    }
}

/// Identifies the customer who owns an instance (SLAs attach to customers).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CustomerId(pub String);

impl fmt::Display for CustomerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for CustomerId {
    fn from(s: &str) -> Self {
        CustomerId(s.to_owned())
    }
}

/// The complete deployment description of one customer's virtual instance.
///
/// A descriptor is **data** — it serializes to the SAN (via
/// [`to_value`](Self::to_value)) and is what the Migration Module ships
/// between nodes; the destination re-materializes the instance from the
/// descriptor plus the SAN-persisted framework state.
///
/// The cluster registry holds one shared, policy-free copy per instance,
/// made by the deploying node: the sandbox policy never leaves the node it
/// was granted on, so a node adopting the instance runs it under
/// [`SecurityPolicy::deny_all`].
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceDescriptor {
    /// The owning customer.
    pub customer: CustomerId,
    /// Unique instance name (also its storage namespace key).
    pub name: String,
    /// Symbolic names of the bundles to deploy, resolved against the node's
    /// [`BundleRepository`](crate::BundleRepository).
    pub bundles: Vec<String>,
    /// Host packages this instance may see through the delegating loader
    /// (the paper's *"explicitly indicated"* export list).
    pub shared_packages: Vec<PackageName>,
    /// Host service interfaces this instance may call.
    pub shared_services: Vec<String>,
    /// Sandbox policy.
    pub policy: SecurityPolicy,
    /// Resource quota from the customer's SLA.
    pub quota: ResourceQuota,
    /// The [`state_namespace`](Self::state_namespace) this descriptor
    /// names, made once and shared by its clones. Derived from `name`, it
    /// is not data: it takes no part in equality or encoding. A
    /// descriptor written field by field starts from
    /// `NamespaceCache::default()`.
    pub namespace: NamespaceCache,
}

/// An [`InstanceDescriptor`]'s state namespace, made the first time it is
/// asked for and shared from then on by every clone of the descriptor — by
/// the cluster registry's copy, so every adoption of a deployed instance
/// names its namespace with the one `Arc`. Every two caches compare equal.
#[derive(Debug, Clone, Default)]
pub struct NamespaceCache(OnceCell<Arc<str>>);

impl PartialEq for NamespaceCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl InstanceDescriptor {
    /// Starts building a descriptor.
    pub fn builder(customer: impl Into<CustomerId>, name: &str) -> InstanceDescriptorBuilder {
        InstanceDescriptorBuilder {
            descriptor: InstanceDescriptor {
                customer: customer.into(),
                name: name.to_owned(),
                bundles: Vec::new(),
                shared_packages: Vec::new(),
                shared_services: Vec::new(),
                policy: SecurityPolicy::deny_all(),
                quota: ResourceQuota::standard(),
                namespace: NamespaceCache::default(),
            },
        }
    }

    /// The SAN namespace holding this instance's framework state,
    /// `instance/<name>`: made once per descriptor, then shared. A name
    /// changed after the namespace was made gets a namespace of its own.
    pub fn state_namespace(&self) -> Arc<str> {
        let made = || Arc::from(self.state_namespace_text().to_string());
        let shared = self.namespace.0.get_or_init(made);
        if shared.strip_prefix("instance/") == Some(self.name.as_str()) {
            Arc::clone(shared)
        } else {
            made()
        }
    }

    /// [`state_namespace`](Self::state_namespace) as text to write out where
    /// it is used, so that naming the namespace builds no `String`.
    pub fn state_namespace_text(&self) -> impl fmt::Display + '_ {
        struct StateNamespace<'a>(&'a str);
        impl fmt::Display for StateNamespace<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "instance/{}", self.0)
            }
        }
        StateNamespace(&self.name)
    }

    /// Serializes the descriptor for SAN storage / migration metadata.
    pub fn to_value(&self) -> Value {
        Value::map()
            .with("customer", self.customer.0.as_str())
            .with("name", self.name.as_str())
            .with(
                "bundles",
                Value::List(
                    self.bundles
                        .iter()
                        .map(|b| Value::from(b.as_str()))
                        .collect(),
                ),
            )
            .with(
                "shared_packages",
                Value::List(
                    self.shared_packages
                        .iter()
                        .map(|p| Value::from(p.as_str()))
                        .collect(),
                ),
            )
            .with(
                "shared_services",
                Value::List(
                    self.shared_services
                        .iter()
                        .map(|s| Value::from(s.as_str()))
                        .collect(),
                ),
            )
            .with("quota_cpu_us", self.quota.cpu_per_sec.as_micros())
            .with("quota_mem", self.quota.memory_bytes)
            .with("quota_disk", self.quota.disk_bytes)
    }

    /// The encoded length of [`to_value`](Self::to_value)'s rendering,
    /// computed from the fields with nothing built: what a registry
    /// transfer reports for this descriptor.
    pub fn encoded_len(&self) -> usize {
        fn list_len<'a>(items: impl ExactSizeIterator<Item = &'a str>) -> usize {
            header_len(items.len()) + items.map(str_len).sum::<usize>()
        }
        let int = |i: u64| int_len(i as i64);
        let packages = self.shared_packages.iter().map(PackageName::as_str);
        header_len(8)
            + field_len("customer", str_len(&self.customer.0))
            + field_len("name", str_len(&self.name))
            + field_len("bundles", list_len(self.bundles.iter().map(String::as_str)))
            + field_len("shared_packages", list_len(packages))
            + field_len(
                "shared_services",
                list_len(self.shared_services.iter().map(String::as_str)),
            )
            + field_len("quota_cpu_us", int(self.quota.cpu_per_sec.as_micros()))
            + field_len("quota_mem", int(self.quota.memory_bytes))
            + field_len("quota_disk", int(self.quota.disk_bytes))
    }
}

/// Builder for [`InstanceDescriptor`].
#[derive(Debug, Clone)]
pub struct InstanceDescriptorBuilder {
    descriptor: InstanceDescriptor,
}

impl InstanceDescriptorBuilder {
    /// Adds a bundle (by symbolic name) to deploy.
    pub fn bundle(mut self, symbolic_name: &str) -> Self {
        self.descriptor.bundles.push(symbolic_name.to_owned());
        self
    }

    /// Exposes a host package to the instance.
    ///
    /// # Panics
    ///
    /// Panics if `package` is not a valid package name.
    pub fn share_package(mut self, package: &str) -> Self {
        self.descriptor
            .shared_packages
            .push(PackageName::new(package).expect("valid package name"));
        self
    }

    /// Exposes a host service interface to the instance.
    pub fn share_service(mut self, interface: &str) -> Self {
        self.descriptor.shared_services.push(interface.to_owned());
        self
    }

    /// Sets the sandbox policy.
    pub fn policy(mut self, policy: SecurityPolicy) -> Self {
        self.descriptor.policy = policy;
        self
    }

    /// Sets the resource quota.
    pub fn quota(mut self, quota: ResourceQuota) -> Self {
        self.descriptor.quota = quota;
        self
    }

    /// Finishes the descriptor, its state namespace made: every clone of
    /// it shares the one.
    pub fn build(self) -> InstanceDescriptor {
        self.descriptor.state_namespace();
        self.descriptor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::{prop, prop_verify_eq, TestRng};

    /// Reads a descriptor back from its `to_value` form, with a deny-all
    /// policy: the policy is not in the value.
    fn from_value(v: &Value) -> Result<InstanceDescriptor, String> {
        let str_list = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Value::as_list)
                .ok_or_else(|| format!("missing {key}"))?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("bad {key} entry"))
                })
                .collect()
        };
        let customer = v
            .get("customer")
            .and_then(Value::as_str)
            .ok_or("missing customer")?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing name")?;
        let shared_packages = str_list("shared_packages")?
            .into_iter()
            .map(|p| PackageName::new(&p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(InstanceDescriptor {
            customer: CustomerId(customer.to_owned()),
            name: name.to_owned(),
            bundles: str_list("bundles")?,
            shared_packages,
            shared_services: str_list("shared_services")?,
            policy: SecurityPolicy::deny_all(),
            quota: ResourceQuota {
                cpu_per_sec: dosgi_net::SimDuration::from_micros(
                    v.get("quota_cpu_us").and_then(Value::as_int).unwrap_or(0) as u64,
                ),
                memory_bytes: v.get("quota_mem").and_then(Value::as_int).unwrap_or(0) as u64,
                disk_bytes: v.get("quota_disk").and_then(Value::as_int).unwrap_or(0) as u64,
            },
            namespace: NamespaceCache::default(),
        })
    }

    fn sample() -> InstanceDescriptor {
        InstanceDescriptor::builder("acme", "acme-prod")
            .bundle("org.acme.shop")
            .bundle("org.acme.billing")
            .share_package("org.host.log.api")
            .share_service("org.host.log.Logger")
            .quota(ResourceQuota::small())
            .build()
    }

    #[test]
    fn builder_collects_fields() {
        let d = sample();
        assert_eq!(d.customer, CustomerId::from("acme"));
        assert_eq!(d.bundles.len(), 2);
        assert_eq!(d.shared_packages.len(), 1);
        assert_eq!(d.shared_services, vec!["org.host.log.Logger"]);
        assert_eq!(&*d.state_namespace(), "instance/acme-prod");
        assert_eq!(d.state_namespace_text().to_string(), &*d.state_namespace());
    }

    /// A descriptor's clones share its namespace; a clone renamed gets its
    /// own, and the cache never makes two descriptors unequal.
    #[test]
    fn clones_share_the_state_namespace() {
        let d = sample();
        let copy = d.clone();
        assert!(Arc::ptr_eq(&d.state_namespace(), &copy.state_namespace()));
        assert_eq!(copy, d);
        let renamed = InstanceDescriptor {
            name: "acme-test".to_owned(),
            ..d.clone()
        };
        assert_eq!(&*renamed.state_namespace(), "instance/acme-test");
        let fresh = InstanceDescriptor {
            namespace: NamespaceCache::default(),
            ..d.clone()
        };
        assert_eq!(fresh, d);
        assert_eq!(fresh.to_value(), d.to_value());
    }

    #[test]
    fn value_round_trip_preserves_everything_but_policy() {
        let mut d = sample();
        d.policy = SecurityPolicy::deny_all().grant_file_rw("/data/acme");
        let back = from_value(&d.to_value()).unwrap();
        assert_eq!(back.customer, d.customer);
        assert_eq!(back.name, d.name);
        assert_eq!(back.bundles, d.bundles);
        assert_eq!(back.shared_packages, d.shared_packages);
        assert_eq!(back.shared_services, d.shared_services);
        assert_eq!(back.quota, d.quota);
        // Policy is never shipped: deny-all on arrival.
        assert!(back.policy.grants().is_empty());
    }

    /// A descriptor with every field random: names and lists of lengths on
    /// both sides of a one-byte varint, quotas of any size.
    fn random(rng: &mut TestRng) -> InstanceDescriptor {
        let text = |rng: &mut TestRng| "x".repeat(rng.usize_in(0, 300));
        let mut d = InstanceDescriptor::builder(text(rng).as_str(), &text(rng))
            .quota(ResourceQuota {
                cpu_per_sec: dosgi_net::SimDuration::from_micros(
                    rng.next_u64() >> rng.u64_below(64),
                ),
                memory_bytes: rng.next_u64() >> rng.u64_below(64),
                disk_bytes: rng.next_u64(),
            })
            .policy(SecurityPolicy::deny_all().grant_file_rw("/data"));
        for i in 0..rng.u64_below(4) {
            d = d.bundle(&text(rng)).share_package(&format!("org.p{i}"));
        }
        let services = if rng.chance(0.2) {
            200
        } else {
            rng.u64_below(3)
        };
        for _ in 0..services {
            d = d.share_service(&text(rng));
        }
        d.build()
    }

    /// Mutation-checked: a length that counts a list's header as two bytes
    /// whatever the list's length fails.
    #[test]
    fn prop_encoded_len_is_the_rendering_length() {
        let cfg = prop::Config::with_cases(300);
        let gen = prop::u64s(0, u64::MAX);
        prop::check_with(&cfg, "encoded_len_is_the_rendering_length", &gen, |&seed| {
            let d = random(&mut TestRng::new(seed));
            prop_verify_eq!(d.encoded_len(), d.to_value().encoded_len());
            Ok(())
        });
    }

    #[test]
    fn from_value_rejects_garbage() {
        assert!(from_value(&Value::Null).is_err());
        assert!(from_value(&Value::map().with("customer", "x")).is_err());
    }

    #[test]
    fn ids_display() {
        assert_eq!(InstanceId(3).to_string(), "vosgi-3");
        assert_eq!(CustomerId::from("acme").to_string(), "acme");
    }
}
