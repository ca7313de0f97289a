//! Bundle manifests: the static description of a module.

use crate::{PackageName, SymbolicName, Version, VersionRange};
use dosgi_san::Value;

/// A package a bundle offers to others (`Export-Package`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageExport {
    /// The exported package.
    pub name: PackageName,
    /// The version of the export.
    pub version: Version,
    /// The simple names of the "classes" the package contains.
    pub symbols: Vec<String>,
}

/// A package a bundle needs from others (`Import-Package`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageImport {
    /// The imported package.
    pub name: PackageName,
    /// Acceptable exporter versions.
    pub range: VersionRange,
    /// Optional imports do not block resolution when unsatisfiable.
    pub optional: bool,
}

/// The static description of a bundle: identity, wiring requirements and
/// content.
///
/// Build one with [`ManifestBuilder`]. Manifests serialize to
/// [`dosgi_san::Value`] so the framework can persist its installed-bundle
/// table to the SAN, which is what lets another node re-materialize the
/// bundle after a migration or failover.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleManifest {
    /// `Bundle-SymbolicName`.
    pub symbolic_name: SymbolicName,
    /// `Bundle-Version`.
    pub version: Version,
    /// Exported packages.
    pub exports: Vec<PackageExport>,
    /// Imported packages.
    pub imports: Vec<PackageImport>,
    /// Private packages: loadable by this bundle only.
    pub private: Vec<PackageExport>,
    /// The start level the bundle belongs to (default 1).
    pub start_level: u32,
    /// Whether the bundle keeps conversation state between requests.
    ///
    /// §3.2 of the paper distinguishes *stateless* bundles (restart on the
    /// target is enough) from *stateful* ones (persistent state is read back
    /// from the SAN; running context is lost unless the replication
    /// extension is enabled).
    pub stateful: bool,
}

impl BundleManifest {
    /// Serializes the manifest into a SAN value tree.
    pub fn to_value(&self) -> Value {
        fn exports_to_value(list: &[PackageExport]) -> Value {
            Value::List(
                list.iter()
                    .map(|e| {
                        Value::map()
                            .with("name", e.name.as_str())
                            .with("version", e.version.to_string())
                            .with(
                                "symbols",
                                Value::List(
                                    e.symbols.iter().map(|s| Value::from(s.as_str())).collect(),
                                ),
                            )
                    })
                    .collect(),
            )
        }
        Value::map()
            .with("sn", self.symbolic_name.as_str())
            .with("version", self.version.to_string())
            .with("exports", exports_to_value(&self.exports))
            .with("private", exports_to_value(&self.private))
            .with(
                "imports",
                Value::List(
                    self.imports
                        .iter()
                        .map(|i| {
                            Value::map()
                                .with("name", i.name.as_str())
                                .with("range", i.range.to_string())
                                .with("optional", i.optional)
                        })
                        .collect(),
                ),
            )
            .with("start_level", i64::from(self.start_level))
            .with("stateful", self.stateful)
    }

    /// Reads a manifest back from its [`to_value`](Self::to_value) form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        fn exports_from_value(v: Option<&Value>) -> Result<Vec<PackageExport>, String> {
            let list = v.and_then(Value::as_list).ok_or("missing export list")?;
            list.iter()
                .map(|e| {
                    let name = e
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("export missing name")?;
                    let version = e
                        .get("version")
                        .and_then(Value::as_str)
                        .ok_or("export missing version")?;
                    let symbols = e
                        .get("symbols")
                        .and_then(Value::as_list)
                        .ok_or("export missing symbols")?
                        .iter()
                        .map(|s| s.as_str().map(str::to_owned).ok_or("bad symbol"))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(PackageExport {
                        name: PackageName::new(name)?,
                        version: version.parse()?,
                        symbols,
                    })
                })
                .collect()
        }
        let sn = v.get("sn").and_then(Value::as_str).ok_or("missing sn")?;
        let version = v
            .get("version")
            .and_then(Value::as_str)
            .ok_or("missing version")?;
        let imports = v
            .get("imports")
            .and_then(Value::as_list)
            .ok_or("missing imports")?
            .iter()
            .map(|i| {
                let name = i
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("import missing name")?;
                let range = i
                    .get("range")
                    .and_then(Value::as_str)
                    .ok_or("import missing range")?;
                Ok::<PackageImport, String>(PackageImport {
                    name: PackageName::new(name)?,
                    range: range.parse()?,
                    optional: i.get("optional").and_then(Value::as_bool).unwrap_or(false),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BundleManifest {
            symbolic_name: SymbolicName::new(sn)?,
            version: version.parse()?,
            exports: exports_from_value(v.get("exports"))?,
            private: exports_from_value(v.get("private"))?,
            imports,
            start_level: v
                .get("start_level")
                .and_then(Value::as_int)
                .unwrap_or(1)
                .try_into()
                .map_err(|_| "negative start level")?,
            stateful: v.get("stateful").and_then(Value::as_bool).unwrap_or(false),
        })
    }

    /// All packages whose symbols this bundle itself contains (exports +
    /// private).
    pub fn own_packages(&self) -> impl Iterator<Item = &PackageExport> {
        self.exports.iter().chain(self.private.iter())
    }
}

/// Builder for [`BundleManifest`].
///
/// # Example
///
/// ```
/// use dosgi_osgi::{ManifestBuilder, Version, VersionRange};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let manifest = ManifestBuilder::new("org.example.httpsvc", Version::new(2, 1, 0))
///     .export_package("org.example.http", Version::new(2, 0, 0), ["Server", "Request"])
///     .import_package("org.example.log", "[1.0,2.0)".parse()?)
///     .start_level(2)
///     .stateful(true)
///     .build()?;
/// assert_eq!(manifest.exports.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ManifestBuilder {
    symbolic_name: String,
    version: Version,
    exports: Vec<(String, Version, Vec<String>)>,
    private: Vec<(String, Version, Vec<String>)>,
    imports: Vec<(String, VersionRange, bool)>,
    start_level: u32,
    stateful: bool,
}

impl ManifestBuilder {
    /// Starts a manifest for `symbolic_name` at `version`.
    pub fn new(symbolic_name: &str, version: Version) -> Self {
        ManifestBuilder {
            symbolic_name: symbolic_name.to_owned(),
            version,
            exports: Vec::new(),
            private: Vec::new(),
            imports: Vec::new(),
            start_level: 1,
            stateful: false,
        }
    }

    /// Adds an exported package containing the given symbols.
    pub fn export_package<I, S>(mut self, name: &str, version: Version, symbols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.exports.push((
            name.to_owned(),
            version,
            symbols.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// Adds a private (non-exported) package containing the given symbols.
    pub fn private_package<I, S>(mut self, name: &str, symbols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.private.push((
            name.to_owned(),
            Version::ZERO,
            symbols.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// Adds a mandatory package import.
    pub fn import_package(mut self, name: &str, range: VersionRange) -> Self {
        self.imports.push((name.to_owned(), range, false));
        self
    }

    /// Adds an optional package import.
    #[cfg(test)]
    pub(crate) fn import_package_optional(mut self, name: &str, range: VersionRange) -> Self {
        self.imports.push((name.to_owned(), range, true));
        self
    }

    /// Sets the bundle's start level (default 1).
    pub fn start_level(mut self, level: u32) -> Self {
        self.start_level = level;
        self
    }

    /// Marks the bundle stateful (see [`BundleManifest::stateful`]).
    pub fn stateful(mut self, stateful: bool) -> Self {
        self.stateful = stateful;
        self
    }

    /// Validates and builds the manifest.
    ///
    /// # Errors
    ///
    /// Returns an error string if any name is malformed, a package is both
    /// exported and imported by the same bundle (not modeled), a package is
    /// exported twice, or the start level is zero.
    pub fn build(self) -> Result<BundleManifest, String> {
        if self.start_level == 0 {
            return Err("start level must be >= 1".to_owned());
        }
        let mut exports = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (name, version, symbols) in self.exports {
            let name = PackageName::new(&name)?;
            if !seen.insert(name.clone()) {
                return Err(format!("package {name} exported twice"));
            }
            exports.push(PackageExport {
                name,
                version,
                symbols,
            });
        }
        let mut private = Vec::new();
        for (name, version, symbols) in self.private {
            let name = PackageName::new(&name)?;
            if !seen.insert(name.clone()) {
                return Err(format!("package {name} declared twice"));
            }
            private.push(PackageExport {
                name,
                version,
                symbols,
            });
        }
        let mut imports = Vec::new();
        for (name, range, optional) in self.imports {
            let name = PackageName::new(&name)?;
            if seen.contains(&name) {
                return Err(format!("package {name} both owned and imported"));
            }
            imports.push(PackageImport {
                name,
                range,
                optional,
            });
        }
        Ok(BundleManifest {
            symbolic_name: SymbolicName::new(&self.symbolic_name)?,
            version: self.version,
            exports,
            imports,
            private,
            start_level: self.start_level,
            stateful: self.stateful,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BundleManifest {
        ManifestBuilder::new("org.example.http", Version::new(2, 1, 0))
            .export_package("org.example.http.api", Version::new(2, 0, 0), ["Server"])
            .private_package("org.example.http.impl", ["ServerImpl", "Worker"])
            .import_package("org.example.log", "[1.0,2.0)".parse().unwrap())
            .import_package_optional("org.example.metrics", VersionRange::ANY)
            .start_level(3)
            .stateful(true)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_manifest() {
        let m = sample();
        assert_eq!(m.symbolic_name.as_str(), "org.example.http");
        assert_eq!(m.exports.len(), 1);
        assert_eq!(m.private.len(), 1);
        assert_eq!(m.imports.len(), 2);
        assert!(m.imports[1].optional);
        assert_eq!(m.start_level, 3);
        assert!(m.stateful);
        assert_eq!(m.own_packages().count(), 2);
    }

    #[test]
    fn builder_rejects_invalid_names() {
        assert!(ManifestBuilder::new("bad name", Version::ZERO)
            .build()
            .is_err());
        assert!(ManifestBuilder::new("ok", Version::ZERO)
            .export_package("bad pkg", Version::ZERO, Vec::<String>::new())
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_conflicting_declarations() {
        // Exported twice.
        assert!(ManifestBuilder::new("a", Version::ZERO)
            .export_package("p.q", Version::ZERO, ["X"])
            .export_package("p.q", Version::new(1, 0, 0), ["Y"])
            .build()
            .is_err());
        // Owned and imported.
        assert!(ManifestBuilder::new("a", Version::ZERO)
            .export_package("p.q", Version::ZERO, ["X"])
            .import_package("p.q", VersionRange::ANY)
            .build()
            .is_err());
        // Zero start level.
        assert!(ManifestBuilder::new("a", Version::ZERO)
            .start_level(0)
            .build()
            .is_err());
    }

    #[test]
    fn value_round_trip() {
        let m = sample();
        let v = m.to_value();
        let back = BundleManifest::from_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn from_value_rejects_garbage() {
        assert!(BundleManifest::from_value(&Value::Null).is_err());
        assert!(BundleManifest::from_value(&Value::map().with("sn", "x")).is_err());
    }

    #[test]
    fn defaults() {
        let m = ManifestBuilder::new("a.b", Version::new(1, 0, 0))
            .build()
            .unwrap();
        assert_eq!(m.start_level, 1);
        assert!(!m.stateful);
        assert!(m.exports.is_empty());
    }
}
