//! Identifiers: bundle ids, service ids, symbolic names, versions and
//! version ranges.

use std::fmt;
use std::str::FromStr;

/// A bundle's framework-local numeric identity, assigned at install time and
/// never reused within a framework instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BundleId(pub u64);

impl fmt::Display for BundleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A registered service's framework-local numeric identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServiceId(pub u64);

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        })
}

/// A bundle symbolic name (`Bundle-SymbolicName`), e.g.
/// `org.example.logsvc`. Dot-separated segments of `[A-Za-z0-9_-]`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolicName(String);

impl SymbolicName {
    /// Validates and wraps a symbolic name.
    ///
    /// # Errors
    ///
    /// Returns the offending string if it is not a valid dotted name.
    pub fn new(s: &str) -> Result<Self, String> {
        if valid_name(s) {
            Ok(SymbolicName(s.to_owned()))
        } else {
            Err(format!("invalid symbolic name: {s:?}"))
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SymbolicName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for SymbolicName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A Java-style package name, e.g. `org.example.log`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackageName(String);

impl PackageName {
    /// Validates and wraps a package name.
    ///
    /// # Errors
    ///
    /// Returns the offending string if it is not a valid dotted name.
    pub fn new(s: &str) -> Result<Self, String> {
        if valid_name(s) {
            Ok(PackageName(s.to_owned()))
        } else {
            Err(format!("invalid package name: {s:?}"))
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if this package matches `prefix` followed by `.*` semantics
    /// (used by boot-delegation lists such as `std.*`).
    pub fn starts_with(&self, prefix: &str) -> bool {
        self.0 == prefix || self.0.starts_with(&format!("{prefix}."))
    }
}

impl fmt::Display for PackageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for PackageName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A fully qualified "class" name, e.g. `org.example.log.Logger`: a package
/// plus a final simple name. The simulation's unit of class loading.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolName {
    package: PackageName,
    simple: String,
}

impl SymbolName {
    /// Parses `org.example.log.Logger` into package `org.example.log` and
    /// simple name `Logger`.
    ///
    /// # Errors
    ///
    /// Returns the offending string if there is no package part or either
    /// half is malformed.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (pkg, simple) = s
            .rsplit_once('.')
            .ok_or_else(|| format!("symbol {s:?} has no package"))?;
        if simple.is_empty() || !valid_name(simple) {
            return Err(format!("invalid simple name in {s:?}"));
        }
        Ok(SymbolName {
            package: PackageName::new(pkg)?,
            simple: simple.to_owned(),
        })
    }

    /// The package half.
    pub fn package(&self) -> &PackageName {
        &self.package
    }

    /// The simple (unqualified) name.
    pub fn simple(&self) -> &str {
        &self.simple
    }
}

impl fmt::Display for SymbolName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.package, self.simple)
    }
}

/// An OSGi version: `major.minor.micro` (qualifiers are not modeled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version {
    /// Major component.
    pub major: u32,
    /// Minor component.
    pub minor: u32,
    /// Micro component.
    pub micro: u32,
}

impl Version {
    /// Builds a version from components.
    pub const fn new(major: u32, minor: u32, micro: u32) -> Self {
        Version {
            major,
            minor,
            micro,
        }
    }

    /// Version `0.0.0`, the OSGi default.
    pub const ZERO: Version = Version::new(0, 0, 0);
}

impl FromStr for Version {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut next = |name: &str| -> Result<u32, String> {
            match parts.next() {
                None => Ok(0),
                Some(p) => p
                    .parse::<u32>()
                    .map_err(|_| format!("invalid {name} in version {s:?}")),
            }
        };
        let major = match s.split('.').next() {
            Some("") | None => return Err(format!("empty version {s:?}")),
            _ => next("major")?,
        };
        let minor = next("minor")?;
        let micro = next("micro")?;
        if parts.next().is_some() {
            return Err(format!("too many components in version {s:?}"));
        }
        Ok(Version::new(major, minor, micro))
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.micro)
    }
}

/// An OSGi version range, e.g. `[1.0,2.0)`, `(1.2.3,1.9]`, or the shorthand
/// `1.0` meaning *at least 1.0* (`[1.0,∞)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VersionRange {
    /// Lower bound.
    pub min: Version,
    /// Whether the lower bound itself is included.
    pub min_inclusive: bool,
    /// Upper bound; `None` means unbounded.
    pub max: Option<Version>,
    /// Whether the upper bound itself is included.
    pub max_inclusive: bool,
}

impl VersionRange {
    /// The range accepting any version: `[0.0.0,∞)`.
    pub const ANY: VersionRange = VersionRange {
        min: Version::ZERO,
        min_inclusive: true,
        max: None,
        max_inclusive: false,
    };

    /// `[min,∞)` — the OSGi shorthand form.
    pub const fn at_least(min: Version) -> Self {
        VersionRange {
            min,
            min_inclusive: true,
            max: None,
            max_inclusive: false,
        }
    }

    /// `[v,v]` — exactly one version.
    pub const fn exact(v: Version) -> Self {
        VersionRange {
            min: v,
            min_inclusive: true,
            max: Some(v),
            max_inclusive: true,
        }
    }

    /// True if `v` falls within the range.
    pub fn contains(&self, v: Version) -> bool {
        let lower_ok = if self.min_inclusive {
            v >= self.min
        } else {
            v > self.min
        };
        let upper_ok = match self.max {
            None => true,
            Some(max) => {
                if self.max_inclusive {
                    v <= max
                } else {
                    v < max
                }
            }
        };
        lower_ok && upper_ok
    }
}

impl Default for VersionRange {
    fn default() -> Self {
        VersionRange::ANY
    }
}

impl FromStr for VersionRange {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let first = s.chars().next().ok_or("empty version range")?;
        if first != '[' && first != '(' {
            // Shorthand: "1.0" == [1.0,∞)
            return Ok(VersionRange::at_least(s.parse()?));
        }
        let last = s.chars().last().expect("non-empty");
        if last != ']' && last != ')' {
            return Err(format!("unterminated version range {s:?}"));
        }
        let inner = &s[1..s.len() - 1];
        let (lo, hi) = inner
            .split_once(',')
            .ok_or_else(|| format!("version range {s:?} needs two bounds"))?;
        let max = match hi.trim() {
            // "[1.0,)" — explicit unbounded upper.
            "" => None,
            other => Some(other.parse()?),
        };
        Ok(VersionRange {
            min: lo.trim().parse()?,
            min_inclusive: first == '[',
            max,
            max_inclusive: last == ']',
        })
    }
}

impl fmt::Display for VersionRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            None if self.min_inclusive && self.min == Version::ZERO => write!(f, "[0.0.0,)"),
            None => write!(
                f,
                "{}{},)",
                if self.min_inclusive { '[' } else { '(' },
                self.min
            ),
            Some(max) => write!(
                f,
                "{}{},{}{}",
                if self.min_inclusive { '[' } else { '(' },
                self.min,
                max,
                if self.max_inclusive { ']' } else { ')' }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::{prop, prop_verify_eq, Gen};

    /// `[min,max)` — the common "compatible until next major" form.
    fn half_open(min: Version, max: Version) -> VersionRange {
        VersionRange {
            min,
            min_inclusive: true,
            max: Some(max),
            max_inclusive: false,
        }
    }

    #[test]
    fn symbolic_name_validation() {
        assert!(SymbolicName::new("org.example.log-svc").is_ok());
        assert!(SymbolicName::new("a").is_ok());
        assert!(SymbolicName::new("").is_err());
        assert!(SymbolicName::new(".a").is_err());
        assert!(SymbolicName::new("a..b").is_err());
        assert!(SymbolicName::new("a b").is_err());
        assert_eq!(SymbolicName::new("x.y").unwrap().to_string(), "x.y");
    }

    #[test]
    fn symbol_name_splits_package() {
        let s = SymbolName::parse("org.example.log.Logger").unwrap();
        assert_eq!(s.package().as_str(), "org.example.log");
        assert_eq!(s.simple(), "Logger");
        assert_eq!(s.to_string(), "org.example.log.Logger");
        assert!(SymbolName::parse("NoPackage").is_err());
        assert!(SymbolName::parse("pkg.").is_err());
    }

    #[test]
    fn package_prefix_matching() {
        let p = PackageName::new("std.collections").unwrap();
        assert!(p.starts_with("std"));
        assert!(p.starts_with("std.collections"));
        assert!(!p.starts_with("std.coll"));
        assert!(!p.starts_with("stdx"));
    }

    #[test]
    fn version_parsing() {
        assert_eq!("1.2.3".parse::<Version>().unwrap(), Version::new(1, 2, 3));
        assert_eq!("1.2".parse::<Version>().unwrap(), Version::new(1, 2, 0));
        assert_eq!("1".parse::<Version>().unwrap(), Version::new(1, 0, 0));
        assert!("".parse::<Version>().is_err());
        assert!("1.2.3.4".parse::<Version>().is_err());
        assert!("1.x".parse::<Version>().is_err());
        assert_eq!(Version::new(1, 2, 3).to_string(), "1.2.3");
    }

    #[test]
    fn version_ordering() {
        assert!(Version::new(1, 0, 0) < Version::new(1, 0, 1));
        assert!(Version::new(1, 9, 9) < Version::new(2, 0, 0));
        assert!(Version::new(0, 10, 0) > Version::new(0, 9, 9));
    }

    #[test]
    fn range_parsing_and_contains() {
        let r: VersionRange = "[1.0,2.0)".parse().unwrap();
        assert!(r.contains(Version::new(1, 0, 0)));
        assert!(r.contains(Version::new(1, 9, 9)));
        assert!(!r.contains(Version::new(2, 0, 0)));
        assert!(!r.contains(Version::new(0, 9, 0)));

        let r: VersionRange = "(1.0,2.0]".parse().unwrap();
        assert!(!r.contains(Version::new(1, 0, 0)));
        assert!(r.contains(Version::new(2, 0, 0)));

        let r: VersionRange = "1.5".parse().unwrap();
        assert!(r.contains(Version::new(1, 5, 0)));
        assert!(r.contains(Version::new(99, 0, 0)));
        assert!(!r.contains(Version::new(1, 4, 9)));

        assert!(VersionRange::ANY.contains(Version::ZERO));
        assert!("[1.0".parse::<VersionRange>().is_err());
        assert!("[1.0]".parse::<VersionRange>().is_err());
    }

    #[test]
    fn range_constructors() {
        assert!(VersionRange::exact(Version::new(1, 2, 3)).contains(Version::new(1, 2, 3)));
        assert!(!VersionRange::exact(Version::new(1, 2, 3)).contains(Version::new(1, 2, 4)));
        let r = half_open(Version::new(1, 0, 0), Version::new(2, 0, 0));
        assert!(r.contains(Version::new(1, 5, 0)));
        assert!(!r.contains(Version::new(2, 0, 0)));
        assert_eq!(VersionRange::default(), VersionRange::ANY);
    }

    #[test]
    fn range_display_round_trip() {
        for s in ["[1.0.0,2.0.0)", "(1.2.3,4.5.6]", "[0.0.0,)"] {
            let r: VersionRange = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
    }

    #[test]
    fn prop_version_display_parse_round_trip() {
        let triples = Gen::new(|rng| {
            (
                rng.u64_in(0, 99) as u32,
                rng.u64_in(0, 99) as u32,
                rng.u64_in(0, 99) as u32,
            )
        });
        prop::check(
            "prop_version_display_parse_round_trip",
            &triples,
            |&(a, b, c)| {
                let v = Version::new(a, b, c);
                prop_verify_eq!(v.to_string().parse::<Version>().unwrap(), v);
                Ok(())
            },
        );
    }

    #[test]
    fn prop_half_open_contains_iff_ordered() {
        let triples = Gen::new(|rng| {
            (
                rng.u64_in(0, 19) as u32,
                rng.u64_in(0, 19) as u32,
                rng.u64_in(0, 19) as u32,
            )
        });
        prop::check(
            "prop_half_open_contains_iff_ordered",
            &triples,
            |&(a, b, x)| {
                let (lo, hi) = (a.min(b), a.max(b));
                let r = half_open(Version::new(lo, 0, 0), Version::new(hi, 0, 0));
                let v = Version::new(x, 0, 0);
                prop_verify_eq!(r.contains(v), x >= lo && x < hi);
                Ok(())
            },
        );
    }
}
