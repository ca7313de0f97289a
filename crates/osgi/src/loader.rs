//! Class spaces: symbol lookup through the OSGi delegation order.

use crate::{BundleId, PackageName, SymbolName};
use std::fmt;

/// Where a successfully loaded class came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassRef {
    /// The symbol that was requested.
    pub symbol: SymbolName,
    /// The bundle that defines it, or `None` for boot-delegated symbols.
    pub defined_by: Option<BundleId>,
    /// How the lookup was satisfied.
    pub via: LoadPath,
}

/// The delegation step that satisfied a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPath {
    /// Boot delegation (the platform's own packages, e.g. `std.*`).
    Boot,
    /// An imported package, wired to another bundle's export.
    Import,
    /// The bundle's own content (exported or private package).
    Own,
    /// The virtual-instance delegating loader consulting the host framework
    /// (the paper's explicit-export mechanism; set by the `dosgi-vosgi`
    /// crate).
    HostDelegation,
}

/// Class-loading failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// No step of the delegation chain defines the symbol.
    NotFound(SymbolName),
    /// The package exists in the exporter but does not contain the symbol.
    NoSuchSymbol {
        /// The package that was consulted.
        package: PackageName,
        /// The missing simple name.
        simple: String,
    },
    /// The requesting bundle is not resolved, so it has no class space.
    Unresolved(BundleId),
    /// The vosgi sandbox denied delegation to the host (package not in the
    /// instance's explicit export list).
    NotExported(PackageName),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::NotFound(s) => write!(f, "class not found: {s}"),
            LoadError::NoSuchSymbol { package, simple } => {
                write!(f, "package {package} has no class {simple}")
            }
            LoadError::Unresolved(b) => write!(f, "bundle {b} is not resolved"),
            LoadError::NotExported(p) => {
                write!(f, "package {p} is not exported to this virtual instance")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// The boot-delegation list: package prefixes served by the platform itself
/// rather than any bundle (the `java.*` analogue). The platform is fixed,
/// so the list is too: a framework takes it without copying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BootDelegation {
    prefixes: &'static [&'static str],
}

impl BootDelegation {
    /// The default boot delegation: `std.*` and `platform.*`.
    pub fn standard() -> Self {
        BootDelegation {
            prefixes: &["std", "platform"],
        }
    }

    /// A boot delegation with the given prefixes.
    #[cfg(test)]
    pub(crate) fn with_prefixes(prefixes: &'static [&'static str]) -> Self {
        BootDelegation { prefixes }
    }

    /// True if `package` is boot-delegated.
    pub fn covers(&self, package: &PackageName) -> bool {
        self.prefixes.iter().any(|p| package.starts_with(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_delegation_prefixes() {
        let boot = BootDelegation::standard();
        assert!(boot.covers(&PackageName::new("std.collections").unwrap()));
        assert!(boot.covers(&PackageName::new("platform").unwrap()));
        assert!(!boot.covers(&PackageName::new("org.example").unwrap()));
        assert!(!boot.covers(&PackageName::new("stdlib").unwrap()));
        let custom = BootDelegation::with_prefixes(&["corp.base"]);
        assert!(custom.covers(&PackageName::new("corp.base.util").unwrap()));
        assert!(!BootDelegation::default().covers(&PackageName::new("std.io").unwrap()));
    }

    #[test]
    fn error_display() {
        let s = SymbolName::parse("a.b.C").unwrap();
        assert_eq!(LoadError::NotFound(s).to_string(), "class not found: a.b.C");
        assert_eq!(
            LoadError::NotExported(PackageName::new("a.b").unwrap()).to_string(),
            "package a.b is not exported to this virtual instance"
        );
        assert_eq!(
            LoadError::Unresolved(BundleId(2)).to_string(),
            "bundle b2 is not resolved"
        );
    }
}
