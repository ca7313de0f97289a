//! The wiring resolver: matches package imports to exports.

use crate::{BundleId, BundleManifest, PackageName, Version};
use std::collections::{BTreeMap, HashMap};

/// The resolved wiring of one bundle: for each imported package, which
/// bundle exports it (and at which version).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wiring {
    /// `package → (exporter, export version)`.
    pub imports: BTreeMap<PackageName, (BundleId, Version)>,
}

impl Wiring {
    /// The exporter wired for `package`, if any.
    #[cfg(test)]
    pub(crate) fn exporter_of(&self, package: &PackageName) -> Option<BundleId> {
        self.imports.get(package).map(|(b, _)| *b)
    }
}

/// The outcome of a resolution pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionReport {
    /// Bundles that resolved, with their wiring.
    pub resolved: BTreeMap<BundleId, Wiring>,
    /// Bundles that could not resolve, with their unsatisfiable mandatory
    /// imports.
    pub failed: BTreeMap<BundleId, Vec<PackageName>>,
}

/// Resolves `candidates` against themselves plus `already_resolved`
/// exporters.
///
/// Semantics follow OSGi's resolver in the aspects the paper relies on:
///
/// * an import is satisfied by an export with the same package name and a
///   version inside the import's range;
/// * among multiple candidates, the **highest version** wins, ties broken
///   by **lowest bundle id** (oldest installed);
/// * optional imports never block resolution; they wire if possible;
/// * resolution is a fixpoint: bundles may depend on each other (cycles are
///   fine), and a bundle failing to resolve removes its exports from the
///   candidate pool, which may cascade.
///
/// `uses`-constraint consistency checking is not modeled.
pub fn resolve(
    candidates: &BTreeMap<BundleId, &BundleManifest>,
    already_resolved: &BTreeMap<BundleId, &BundleManifest>,
) -> ResolutionReport {
    // Start optimistically: every candidate might resolve.
    let mut viable: BTreeMap<BundleId, &BundleManifest> = candidates.clone();
    let mut failed: BTreeMap<BundleId, Vec<PackageName>> = BTreeMap::new();

    loop {
        // Exporter pool: already-resolved bundles plus currently-viable
        // candidates.
        let mut pool: HashMap<&PackageName, Vec<(BundleId, Version)>> = HashMap::new();
        for (&id, m) in already_resolved.iter().chain(viable.iter()) {
            for e in &m.exports {
                pool.entry(&e.name).or_default().push((id, e.version));
            }
        }
        for offers in pool.values_mut() {
            // Highest version first, then lowest id.
            offers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }

        let mut newly_failed: Vec<(BundleId, Vec<PackageName>)> = Vec::new();
        for (&id, m) in &viable {
            let missing: Vec<PackageName> = m
                .imports
                .iter()
                .filter(|imp| !imp.optional)
                .filter(|imp| {
                    !pool
                        .get(&imp.name)
                        .is_some_and(|offers| offers.iter().any(|(_, v)| imp.range.contains(*v)))
                })
                .map(|imp| imp.name.clone())
                .collect();
            if !missing.is_empty() {
                newly_failed.push((id, missing));
            }
        }

        if newly_failed.is_empty() {
            // Fixpoint reached: wire everything still viable.
            let mut resolved = BTreeMap::new();
            for (&id, m) in &viable {
                let mut wiring = Wiring::default();
                for imp in &m.imports {
                    let pick = pool
                        .get(&imp.name)
                        .and_then(|offers| offers.iter().find(|(_, v)| imp.range.contains(*v)))
                        .copied();
                    match pick {
                        Some((exporter, version)) => {
                            wiring.imports.insert(imp.name.clone(), (exporter, version));
                        }
                        None => debug_assert!(imp.optional, "mandatory import unwired"),
                    }
                }
                resolved.insert(id, wiring);
            }
            return ResolutionReport { resolved, failed };
        }

        for (id, missing) in newly_failed {
            viable.remove(&id);
            failed.insert(id, missing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ManifestBuilder, VersionRange};

    fn exporter(name: &str, pkg: &str, v: Version) -> BundleManifest {
        ManifestBuilder::new(name, v)
            .export_package(pkg, v, ["X"])
            .build()
            .unwrap()
    }

    fn importer(name: &str, pkg: &str, range: &str) -> BundleManifest {
        ManifestBuilder::new(name, Version::new(1, 0, 0))
            .import_package(pkg, range.parse().unwrap())
            .build()
            .unwrap()
    }

    fn run(
        candidates: &[(u64, &BundleManifest)],
        resolved: &[(u64, &BundleManifest)],
    ) -> ResolutionReport {
        let c: BTreeMap<BundleId, &BundleManifest> =
            candidates.iter().map(|(i, m)| (BundleId(*i), *m)).collect();
        let r: BTreeMap<BundleId, &BundleManifest> =
            resolved.iter().map(|(i, m)| (BundleId(*i), *m)).collect();
        resolve(&c, &r)
    }

    #[test]
    fn wires_import_to_matching_export() {
        let log = exporter("log", "api.log", Version::new(1, 2, 0));
        let app = importer("app", "api.log", "[1.0,2.0)");
        let report = run(&[(1, &log), (2, &app)], &[]);
        assert!(report.failed.is_empty());
        let wiring = &report.resolved[&BundleId(2)];
        assert_eq!(
            wiring.imports[&PackageName::new("api.log").unwrap()],
            (BundleId(1), Version::new(1, 2, 0))
        );
        assert_eq!(
            wiring.exporter_of(&PackageName::new("api.log").unwrap()),
            Some(BundleId(1))
        );
    }

    #[test]
    fn highest_version_wins_then_lowest_id() {
        let old = exporter("log", "api.log", Version::new(1, 0, 0));
        let new1 = exporter("log2", "api.log", Version::new(1, 5, 0));
        let new2 = exporter("log3", "api.log", Version::new(1, 5, 0));
        let app = importer("app", "api.log", "1.0");
        let report = run(&[(1, &old), (3, &new2), (2, &new1), (4, &app)], &[]);
        let wiring = &report.resolved[&BundleId(4)];
        // 1.5.0 beats 1.0.0; between ids 2 and 3 at 1.5.0, id 2 wins.
        assert_eq!(
            wiring.imports[&PackageName::new("api.log").unwrap()],
            (BundleId(2), Version::new(1, 5, 0))
        );
    }

    #[test]
    fn version_range_excludes_wires_nothing() {
        let log = exporter("log", "api.log", Version::new(2, 0, 0));
        let app = importer("app", "api.log", "[1.0,2.0)");
        let report = run(&[(1, &log), (2, &app)], &[]);
        assert_eq!(
            report.failed[&BundleId(2)],
            vec![PackageName::new("api.log").unwrap()]
        );
        assert!(report.resolved.contains_key(&BundleId(1)));
    }

    #[test]
    fn optional_import_does_not_block() {
        let app = ManifestBuilder::new("app", Version::new(1, 0, 0))
            .import_package_optional("api.absent", VersionRange::ANY)
            .build()
            .unwrap();
        let report = run(&[(1, &app)], &[]);
        assert!(report.failed.is_empty());
        assert!(report.resolved[&BundleId(1)].imports.is_empty());
    }

    #[test]
    fn cyclic_dependencies_resolve_together() {
        let a = ManifestBuilder::new("a", Version::new(1, 0, 0))
            .export_package("pkg.a", Version::new(1, 0, 0), ["A"])
            .import_package("pkg.b", VersionRange::ANY)
            .build()
            .unwrap();
        let b = ManifestBuilder::new("b", Version::new(1, 0, 0))
            .export_package("pkg.b", Version::new(1, 0, 0), ["B"])
            .import_package("pkg.a", VersionRange::ANY)
            .build()
            .unwrap();
        let report = run(&[(1, &a), (2, &b)], &[]);
        assert!(report.failed.is_empty());
        assert_eq!(report.resolved.len(), 2);
    }

    #[test]
    fn failure_cascades_through_dependents() {
        // c needs missing.pkg; b needs c's export; a needs b's export.
        let c = ManifestBuilder::new("c", Version::new(1, 0, 0))
            .export_package("pkg.c", Version::new(1, 0, 0), ["C"])
            .import_package("missing.pkg", VersionRange::ANY)
            .build()
            .unwrap();
        let b = ManifestBuilder::new("b", Version::new(1, 0, 0))
            .export_package("pkg.b", Version::new(1, 0, 0), ["B"])
            .import_package("pkg.c", VersionRange::ANY)
            .build()
            .unwrap();
        let a = importer("a", "pkg.b", "0");
        let report = run(&[(1, &c), (2, &b), (3, &a)], &[]);
        assert_eq!(report.failed.len(), 3);
        assert!(report.resolved.is_empty());
        assert_eq!(
            report.failed[&BundleId(1)],
            vec![PackageName::new("missing.pkg").unwrap()]
        );
    }

    #[test]
    fn already_resolved_bundles_export_into_the_pool() {
        let host = exporter("host", "api.log", Version::new(1, 0, 0));
        let app = importer("app", "api.log", "1.0");
        let report = run(&[(5, &app)], &[(1, &host)]);
        assert!(report.failed.is_empty());
        assert_eq!(
            report.resolved[&BundleId(5)].exporter_of(&PackageName::new("api.log").unwrap()),
            Some(BundleId(1))
        );
    }

    #[test]
    fn self_export_satisfies_own_import_is_not_modeled_as_conflict() {
        // A bundle never imports a package it owns (builder forbids it),
        // but two bundles may export the same package at different versions;
        // importers pick per the version rule.
        let v1 = exporter("p1", "pkg", Version::new(1, 0, 0));
        let v2 = exporter("p2", "pkg", Version::new(2, 0, 0));
        let old_client = importer("old", "pkg", "[1.0,2.0)");
        let new_client = importer("new", "pkg", "[2.0,3.0)");
        let report = run(
            &[(1, &v1), (2, &v2), (3, &old_client), (4, &new_client)],
            &[],
        );
        assert!(report.failed.is_empty());
        let p = PackageName::new("pkg").unwrap();
        assert_eq!(
            report.resolved[&BundleId(3)].exporter_of(&p),
            Some(BundleId(1))
        );
        assert_eq!(
            report.resolved[&BundleId(4)].exporter_of(&p),
            Some(BundleId(2))
        );
    }
}
