//! The wiring resolver: matches package imports to exports.

use crate::{BundleId, BundleManifest, PackageName, Version};
use dosgi_net::FxHashMap;
use std::collections::BTreeMap;

/// The resolved wiring of one bundle: for each imported package, which
/// bundle exports it (and at which version).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wiring {
    /// `package → (exporter, export version)`.
    pub imports: BTreeMap<PackageName, (BundleId, Version)>,
}

/// The outcome of a resolution pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionReport {
    /// Bundles that resolved, with their wiring.
    pub resolved: BTreeMap<BundleId, Wiring>,
    /// Bundles that could not resolve, with their unsatisfiable imports.
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
/// * resolution is a fixpoint: bundles may depend on each other (cycles are
///   fine), and a bundle failing to resolve removes its exports from the
///   candidate pool, which may cascade.
///
/// `uses`-constraint consistency checking is not modeled.
///
/// Both sides are read as they are handed over — `(id, manifest)` pairs
/// with distinct ids, walked once per pass of the fixpoint — and nothing is
/// copied out of them: the candidates still viable are those not failed
/// yet. What a pass allocates is its exporter pool and its report.
pub fn resolve<'a>(
    candidates: impl Iterator<Item = (BundleId, &'a BundleManifest)> + Clone,
    already_resolved: impl Iterator<Item = (BundleId, &'a BundleManifest)> + Clone,
) -> ResolutionReport {
    // Start optimistically: every candidate might resolve.
    let mut failed: BTreeMap<BundleId, Vec<PackageName>> = BTreeMap::new();

    loop {
        let viable = candidates
            .clone()
            .filter(|(id, _)| !failed.contains_key(id));
        // Exporter pool: already-resolved bundles plus currently-viable
        // candidates.
        let mut pool: FxHashMap<&PackageName, Vec<(BundleId, Version)>> = FxHashMap::default();
        for (id, m) in already_resolved.clone().chain(viable.clone()) {
            for e in &m.exports {
                pool.entry(&e.name).or_default().push((id, e.version));
            }
        }
        for offers in pool.values_mut() {
            // Highest version first, then lowest id.
            offers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }

        let mut newly_failed: Vec<(BundleId, Vec<PackageName>)> = Vec::new();
        for (id, m) in viable.clone() {
            let missing: Vec<PackageName> = m
                .imports
                .iter()
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
            for (id, m) in viable {
                let mut wiring = Wiring::default();
                for imp in &m.imports {
                    // At the fixpoint every import of a viable bundle has an
                    // offer in range.
                    let pick = pool
                        .get(&imp.name)
                        .and_then(|offers| offers.iter().find(|(_, v)| imp.range.contains(*v)));
                    if let Some(&pick) = pick {
                        wiring.imports.insert(imp.name.clone(), pick);
                    }
                }
                resolved.insert(id, wiring);
            }
            return ResolutionReport { resolved, failed };
        }

        failed.extend(newly_failed);
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

    fn run<'a>(
        candidates: &[(u64, &'a BundleManifest)],
        resolved: &[(u64, &'a BundleManifest)],
    ) -> ResolutionReport {
        let pairs = |list: &[(u64, &'a BundleManifest)]| {
            list.iter()
                .map(|&(i, m)| (BundleId(i), m))
                .collect::<Vec<_>>()
        };
        resolve(pairs(candidates).into_iter(), pairs(resolved).into_iter())
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
            report.resolved[&BundleId(5)].imports[&PackageName::new("api.log").unwrap()].0,
            BundleId(1)
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
        assert_eq!(report.resolved[&BundleId(3)].imports[&p].0, BundleId(1));
        assert_eq!(report.resolved[&BundleId(4)].imports[&p].0, BundleId(2));
    }
}
