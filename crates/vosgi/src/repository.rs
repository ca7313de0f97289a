//! The bundle repository: the node's local "bundle cache".
//!
//! Descriptors name bundles symbolically; the repository resolves names to
//! manifests (and, paired with an
//! [`ActivatorFactory`](dosgi_osgi::ActivatorFactory), to behaviour). In a
//! real deployment this is the provisioning system every node can reach —
//! the reason a migrated instance's bundles can be re-materialized anywhere.
//!
//! Each manifest is held once, shared: every framework that installs it
//! holds the repository's `Arc`, and so does a restore whose persisted
//! manifest equals the one catalogued — the repository keeps each
//! manifest's row form beside it for that comparison
//! ([`KnownManifests`]).

use dosgi_net::FxHashMap;
use dosgi_osgi::{BundleManifest, KnownManifests};
use dosgi_san::Value;
use std::fmt;
use std::sync::Arc;

/// A name → manifest catalogue.
#[derive(Clone, Default)]
pub struct BundleRepository {
    /// Each manifest beside its row form.
    manifests: FxHashMap<String, (Arc<BundleManifest>, Value)>,
}

impl fmt::Debug for BundleRepository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BundleRepository")
            .field("bundles", &self.names())
            .finish()
    }
}

impl BundleRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a manifest, keyed by its symbolic name.
    pub fn add(&mut self, manifest: BundleManifest) {
        let (name, form) = (manifest.symbolic_name.to_string(), manifest.to_value());
        self.manifests.insert(name, (Arc::new(manifest), form));
    }

    /// Looks up a manifest by symbolic name: the one every framework that
    /// installs it shares.
    pub fn manifest(&self, symbolic_name: &str) -> Option<&Arc<BundleManifest>> {
        self.manifests
            .get(symbolic_name)
            .map(|(manifest, _)| manifest)
    }

    /// True if the repository knows `symbolic_name`.
    pub fn contains(&self, symbolic_name: &str) -> bool {
        self.manifests.contains_key(symbolic_name)
    }

    /// All known symbolic names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.manifests.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of catalogued bundles.
    pub fn len(&self) -> usize {
        self.manifests.len()
    }

    /// True if the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.manifests.is_empty()
    }
}

impl KnownManifests for BundleRepository {
    fn known(&self, symbolic_name: &str) -> Option<(&Arc<BundleManifest>, &Value)> {
        self.manifests
            .get(symbolic_name)
            .map(|(manifest, form)| (manifest, form))
    }
}

impl FromIterator<BundleManifest> for BundleRepository {
    fn from_iter<T: IntoIterator<Item = BundleManifest>>(iter: T) -> Self {
        let mut repo = BundleRepository::new();
        for m in iter {
            repo.add(m);
        }
        repo
    }
}

impl Extend<BundleManifest> for BundleRepository {
    fn extend<T: IntoIterator<Item = BundleManifest>>(&mut self, iter: T) {
        for m in iter {
            self.add(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_osgi::{ManifestBuilder, Version};

    fn m(name: &str) -> BundleManifest {
        ManifestBuilder::new(name, Version::new(1, 0, 0))
            .build()
            .unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let mut repo = BundleRepository::new();
        assert!(repo.is_empty());
        repo.add(m("a.b"));
        repo.add(m("c.d"));
        assert!(repo.contains("a.b"));
        assert!(!repo.contains("x.y"));
        assert_eq!(repo.manifest("c.d").unwrap().symbolic_name.as_str(), "c.d");
        assert_eq!(repo.names(), vec!["a.b", "c.d"]);
        assert_eq!(repo.len(), 2);
        // The row form a restore compares against is the manifest's own.
        let (manifest, form) = repo.known("a.b").unwrap();
        assert_eq!(*form, manifest.to_value());
        assert!(repo.known("x.y").is_none());
    }

    #[test]
    fn replace_keeps_latest() {
        let mut repo = BundleRepository::new();
        repo.add(m("a.b"));
        let newer = ManifestBuilder::new("a.b", Version::new(2, 0, 0))
            .build()
            .unwrap();
        repo.add(newer);
        assert_eq!(repo.manifest("a.b").unwrap().version, Version::new(2, 0, 0));
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn collect_and_extend() {
        let mut repo: BundleRepository = [m("a.b")].into_iter().collect();
        repo.extend([m("c.d")]);
        assert_eq!(repo.len(), 2);
    }
}
