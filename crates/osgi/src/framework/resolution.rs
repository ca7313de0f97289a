//! The resolution controller: wiring bundles' imports to exports, and
//! loading classes through the class space the wiring defines.

use super::Framework;
use crate::loader::LoadPath;
use crate::persist::Row;
use crate::{BundleId, BundleState, ClassRef, LoadError, SymbolName};

impl Framework {
    /// Wires the `INSTALLED` bundles against the resolved ones, reading
    /// both straight from the bundle table.
    pub(super) fn resolve_step(&mut self) {
        let bundles = self.bundles.values();
        let candidates = bundles
            .clone()
            .filter(|b| b.state == BundleState::Installed)
            .map(|b| (b.id, &*b.manifest));
        let resolved_pool = bundles
            .filter(|b| b.state.is_resolved())
            .map(|b| (b.id, &*b.manifest));
        let mut report = crate::resolver::resolve(candidates, resolved_pool);
        for &id in report.resolved.keys() {
            self.bundles
                .get_mut(&id)
                .expect("resolver only reports candidate ids")
                .state = BundleState::Resolved;
            self.metrics.resolved.incr();
            self.mark(Row::Bundle(id));
        }
        // Moved, not copied: into an empty table, the report's whole.
        self.wirings.append(&mut report.resolved);
    }

    /// Recomputes all wirings from scratch. Active bundles whose imports can
    /// no longer be satisfied are stopped and demoted to `INSTALLED`
    /// (a simplified OSGi *refresh packages* operation).
    pub(super) fn refresh(&mut self) {
        let candidates = self
            .bundles
            .values()
            .filter(|b| b.state != BundleState::Uninstalled)
            .map(|b| (b.id, &*b.manifest));
        let report = crate::resolver::resolve(candidates, std::iter::empty());
        let failed: Vec<BundleId> = report.failed.keys().copied().collect();
        self.wirings = report.resolved.clone();
        for (id, _) in report.resolved {
            let b = self
                .bundles
                .get_mut(&id)
                .expect("resolver only reports installed ids");
            if b.state == BundleState::Installed {
                b.state = BundleState::Resolved;
                self.metrics.resolved.incr();
                self.mark(Row::Bundle(id));
            }
        }
        for id in failed {
            if self.bundle_state(id) == Ok(BundleState::Active) {
                let _ = self.stop_releasing(id, false);
            }
            let state = self.bundles.get_mut(&id).map(|b| &mut b.state);
            let was = state.map(|s| std::mem::replace(s, BundleState::Installed));
            if was.is_some_and(|was| was != BundleState::Installed) {
                self.mark(Row::Bundle(id));
            }
            self.wirings.remove(&id);
        }
    }

    /// Loads `symbol` through `bundle`'s class space: boot delegation, then
    /// imported packages, then the bundle's own content.
    ///
    /// # Errors
    ///
    /// See [`LoadError`]. An `INSTALLED` bundle triggers a resolution
    /// attempt first, as in OSGi.
    pub fn load_class(
        &mut self,
        bundle: BundleId,
        symbol: &SymbolName,
    ) -> Result<ClassRef, LoadError> {
        if self.bundle_state(bundle) == Ok(BundleState::Installed) {
            self.resolve_all();
        }
        let b = self.bundles.get(&bundle).filter(|b| b.state.is_resolved());
        let b = b.ok_or(LoadError::Unresolved(bundle))?;
        // 1. Boot delegation.
        if self.config.boot.covers(symbol.package()) {
            return Ok(ClassRef {
                symbol: symbol.clone(),
                defined_by: None,
                via: LoadPath::Boot,
            });
        }
        // 2. Imported packages (imports shadow own content, as in OSGi).
        let wiring = self.wirings.get(&bundle);
        if let Some(&(exporter, _)) = wiring.and_then(|w| w.imports.get(symbol.package())) {
            let exports = self.bundles.get(&exporter).map(|b| &b.manifest.exports);
            let pkg = exports.and_then(|e| e.iter().find(|e| &e.name == symbol.package()));
            let pkg = pkg.ok_or_else(|| LoadError::NotFound(symbol.clone()))?;
            return pkg.load(symbol, exporter, LoadPath::Import);
        }
        // 3. The bundle's own content.
        match b
            .manifest
            .own_packages()
            .find(|p| &p.name == symbol.package())
        {
            Some(pkg) => pkg.load(symbol, bundle, LoadPath::Own),
            None => Err(LoadError::NotFound(symbol.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::framework::tests::{app_manifest, log_manifest};
    use crate::{Framework, LoadError, LoadPath, SymbolName};

    #[test]
    fn class_loading_follows_delegation_order() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), None).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.resolve_all();

        // Boot delegation.
        let sym = SymbolName::parse("std.collections.HashMap").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Boot);
        assert_eq!(r.defined_by, None);

        // Imported package resolves in the exporter.
        let sym = SymbolName::parse("org.test.log.api.Logger").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Import);
        assert_eq!(r.defined_by, Some(log));

        // Own private content.
        let sym = SymbolName::parse("org.test.app.impl.Main").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Own);
        assert_eq!(r.defined_by, Some(app));

        // Wired package without the symbol: NoSuchSymbol, no fallback.
        let sym = SymbolName::parse("org.test.log.api.Missing").unwrap();
        assert!(matches!(
            fw.load_class(app, &sym),
            Err(LoadError::NoSuchSymbol { .. })
        ));

        // Unknown package.
        let sym = SymbolName::parse("com.nowhere.X").unwrap();
        assert!(matches!(
            fw.load_class(app, &sym),
            Err(LoadError::NotFound(_))
        ));

        // Private content of another bundle is NOT visible.
        let sym = SymbolName::parse("org.test.app.impl.Main").unwrap();
        assert!(matches!(
            fw.load_class(log, &sym),
            Err(LoadError::NotFound(_))
        ));
    }
}
