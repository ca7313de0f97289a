//! Bundle activators: the code that runs when a bundle starts and stops.

use crate::framework::Framework;
use crate::{
    BundleError, BundleId, BundleManifest, ClassRef, LoadError, PropValue, Service, ServiceError,
    ServiceId, SymbolName,
};
use dosgi_net::SimDuration;
use dosgi_san::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A bundle's activator, the analogue of OSGi's `BundleActivator`.
///
/// `start` typically registers services and `stop` releases them (the
/// framework also sweeps any services the bundle forgot to unregister).
/// Errors are strings; the framework wraps them into
/// [`BundleError::ActivatorFailed`](crate::BundleError::ActivatorFailed) and
/// rolls the bundle back to `RESOLVED`.
pub trait Activator: Send {
    /// Called on the `RESOLVED → STARTING` transition.
    ///
    /// # Errors
    ///
    /// Returning an error aborts the start; the bundle stays `RESOLVED`.
    fn start(&mut self, ctx: &mut BundleContext<'_>) -> Result<(), String>;

    /// Called on the `ACTIVE → STOPPING` transition.
    ///
    /// # Errors
    ///
    /// Errors are recorded as framework events; the stop proceeds anyway
    /// (OSGi semantics: a failing stop cannot keep a bundle active).
    fn stop(&mut self, ctx: &mut BundleContext<'_>) -> Result<(), String>;
}

/// A boxed start/stop callback as stored by [`FnActivator`].
type LifecycleFn = Box<dyn for<'a> FnMut(&mut BundleContext<'a>) -> Result<(), String> + Send>;

/// An [`Activator`] built from two closures. Convenient in tests and
/// examples.
pub struct FnActivator {
    on_start: LifecycleFn,
    on_stop: LifecycleFn,
}

impl FnActivator {
    /// Builds an activator from start and stop closures.
    pub fn new<S, T>(on_start: S, on_stop: T) -> Self
    where
        S: FnMut(&mut BundleContext<'_>) -> Result<(), String> + Send + 'static,
        T: FnMut(&mut BundleContext<'_>) -> Result<(), String> + Send + 'static,
    {
        FnActivator {
            on_start: Box::new(on_start),
            on_stop: Box::new(on_stop),
        }
    }

    /// An activator that only acts on start.
    pub fn on_start<S>(on_start: S) -> Self
    where
        S: FnMut(&mut BundleContext<'_>) -> Result<(), String> + Send + 'static,
    {
        Self::new(on_start, |_| Ok(()))
    }
}

impl fmt::Debug for FnActivator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnActivator").finish_non_exhaustive()
    }
}

impl Activator for FnActivator {
    fn start(&mut self, ctx: &mut BundleContext<'_>) -> Result<(), String> {
        (self.on_start)(ctx)
    }
    fn stop(&mut self, ctx: &mut BundleContext<'_>) -> Result<(), String> {
        (self.on_stop)(ctx)
    }
}

/// A boxed activator constructor as stored by [`ActivatorFactory`].
type BuilderFn = Box<dyn Fn(&BundleManifest) -> Box<dyn Activator> + Send + Sync>;

/// Recreates activators from manifests when a framework is restored from
/// persistent state.
///
/// Activators are behaviour and cannot be serialized to the SAN; what *is*
/// persistent is the bundle's identity. A factory maps symbolic names back
/// to code — the moral equivalent of the bundle's JAR being re-read from the
/// (SAN-backed) bundle cache on another node. This is the piece that makes
/// [`Framework::restore`](crate::Framework::restore) — and therefore the
/// paper's migration — work.
#[derive(Default)]
pub struct ActivatorFactory {
    builders: HashMap<String, BuilderFn>,
}

impl fmt::Debug for ActivatorFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&String> = self.builders.keys().collect();
        names.sort();
        f.debug_struct("ActivatorFactory")
            .field("registered", &names)
            .finish()
    }
}

impl ActivatorFactory {
    /// Creates an empty factory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a builder for bundles whose symbolic name equals `name`.
    pub fn register<F>(&mut self, name: &str, builder: F)
    where
        F: Fn(&BundleManifest) -> Box<dyn Activator> + Send + Sync + 'static,
    {
        self.builders.insert(name.to_owned(), Box::new(builder));
    }

    /// Builds an activator for `manifest`, if a builder is registered.
    pub fn create(&self, manifest: &BundleManifest) -> Option<Box<dyn Activator>> {
        self.builders
            .get(manifest.symbolic_name.as_str())
            .map(|b| b(manifest))
    }

    /// Names with registered builders, sorted.
    pub fn registered(&self) -> Vec<String> {
        let mut v: Vec<String> = self.builders.keys().cloned().collect();
        v.sort();
        v
    }
}

/// The execution context handed to activators (and other framework-resident
/// code such as the vosgi instance manager): a narrowed, bundle-scoped view
/// of the owning [`Framework`].
#[derive(Debug)]
pub struct BundleContext<'a> {
    bundle: BundleId,
    framework: &'a mut Framework,
}

impl<'a> BundleContext<'a> {
    pub(crate) fn new(bundle: BundleId, framework: &'a mut Framework) -> Self {
        BundleContext { bundle, framework }
    }

    /// The bundle this context belongs to.
    pub fn bundle(&self) -> BundleId {
        self.bundle
    }

    /// Registers a service owned by this bundle.
    pub fn register_service(
        &mut self,
        interfaces: &[&str],
        properties: BTreeMap<String, PropValue>,
        implementation: Box<dyn Service>,
    ) -> ServiceId {
        self.framework
            .register_service(self.bundle, interfaces, properties, implementation)
    }

    /// The best service offering `interface`.
    pub fn best_service(&self, interface: &str) -> Option<ServiceId> {
        self.framework.best_service(interface)
    }

    /// Invokes a service.
    ///
    /// # Errors
    ///
    /// Propagates lookup and implementation errors.
    pub fn call_service(
        &mut self,
        id: ServiceId,
        method: &str,
        arg: &Value,
    ) -> Result<Value, ServiceError> {
        self.framework.call_service(id, method, arg)
    }

    /// Loads a class through this bundle's class space.
    ///
    /// # Errors
    ///
    /// See [`LoadError`].
    pub fn load_class(&mut self, symbol: &SymbolName) -> Result<ClassRef, LoadError> {
        self.framework.load_class(self.bundle, symbol)
    }

    /// Writes to this bundle's persistent storage area (SAN-backed when the
    /// framework has a store attached).
    ///
    /// # Errors
    ///
    /// [`BundleError::Store`] when the SAN write-through fails; the row is
    /// written in memory and re-flushed later regardless.
    pub fn store_put(&mut self, key: &str, value: Value) -> Result<(), BundleError> {
        self.framework.bundle_store_put(self.bundle, key, value)
    }

    /// Reads from this bundle's persistent storage area — the same row
    /// cache a service call's [`CallContext`](crate::CallContext) reads.
    ///
    /// # Errors
    ///
    /// [`BundleError::Store`] when the row is not resident and the SAN read
    /// fails.
    pub fn store_get(&mut self, key: &str) -> Result<Option<Value>, BundleError> {
        self.framework.bundle_store_get(self.bundle, key)
    }

    /// Charges CPU time consumed during activation to this bundle.
    pub fn charge_cpu(&mut self, d: SimDuration) {
        self.framework.ledger_mut().charge_cpu(self.bundle, d);
    }

    /// Records memory held by this bundle.
    pub fn alloc(&mut self, bytes: u64) {
        self.framework.ledger_mut().alloc(self.bundle, bytes);
    }

    /// Records memory released by this bundle.
    pub fn free(&mut self, bytes: u64) {
        self.framework.ledger_mut().free(self.bundle, bytes);
    }
}
