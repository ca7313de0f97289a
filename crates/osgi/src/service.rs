//! The dynamic service invocation model.

use crate::{BundleId, DataArea, ServiceError, UsageLedger};
use dosgi_net::SimDuration;
use dosgi_san::{StoreError, Value};

/// A service implementation registered with the framework.
///
/// Real OSGi services are plain Java objects invoked through interfaces;
/// this simulation uses dynamic dispatch on a method name with [`Value`]
/// arguments, which is expressive enough for the paper's test services (log,
/// HTTP, JMX/metrics) and keeps the registry type-erased.
///
/// Implementations report their resource demands through the
/// [`CallContext`]; this is the measurement point the paper's Monitoring
/// Module lacks on a stock JVM (it pins its hopes on JSR-284) and that we
/// build in natively.
pub trait Service: Send {
    /// Invokes `method` with `arg`, returning the result value.
    ///
    /// # Errors
    ///
    /// [`ServiceError::MethodNotFound`] for unknown methods, or
    /// [`ServiceError::Failed`] for application failures.
    fn call(
        &mut self,
        ctx: &mut CallContext<'_>,
        method: &str,
        arg: &Value,
    ) -> Result<Value, ServiceError>;
}

impl<F> Service for F
where
    F: FnMut(&mut CallContext<'_>, &str, &Value) -> Result<Value, ServiceError> + Send,
{
    fn call(
        &mut self,
        ctx: &mut CallContext<'_>,
        method: &str,
        arg: &Value,
    ) -> Result<Value, ServiceError> {
        self(ctx, method, arg)
    }
}

/// Per-invocation context handed to a [`Service`].
///
/// Lets the implementation charge its resource consumption to the owning
/// bundle's ledger — the JSR-284-style accounting hook — and read/write the
/// bundle's persistent storage area (how *stateful* bundles in the paper's
/// §3.2 sense persist state that must survive migration).
#[derive(Debug)]
pub struct CallContext<'a> {
    bundle: BundleId,
    ledger: &'a mut UsageLedger,
    data: Option<&'a mut DataArea>,
}

impl<'a> CallContext<'a> {
    /// Creates a context charging `bundle` on `ledger`, with the bundle's
    /// persistent storage area attached if there is one (without, storage
    /// reads find nothing and writes go nowhere).
    pub fn new(
        bundle: BundleId,
        ledger: &'a mut UsageLedger,
        data: Option<&'a mut DataArea>,
    ) -> Self {
        CallContext {
            bundle,
            ledger,
            data,
        }
    }

    /// Reads from the bundle's persistent storage area; a row not yet
    /// resident is fetched from the SAN.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] of a failed SAN read. Propagate it (`?`): running
    /// on as if the row were absent would silently drop persisted state.
    pub fn store_get(&mut self, key: &str) -> Result<Option<Value>, StoreError> {
        match self.data.as_mut() {
            Some(area) => area.get(key),
            None => Ok(None),
        }
    }

    /// Writes to the bundle's persistent storage area (the framework
    /// flushes the written rows to the SAN after the call), charging the
    /// bytes to the bundle's disk account.
    pub fn store_put(&mut self, key: &str, value: Value) {
        self.ledger
            .charge_disk(self.bundle, value.encoded_len() as u64);
        if let Some(area) = self.data.as_mut() {
            area.put(key, value);
        }
    }

    /// The bundle that owns the service being invoked.
    pub fn bundle(&self) -> BundleId {
        self.bundle
    }

    /// Records `d` of CPU time consumed by this call.
    pub fn charge_cpu(&mut self, d: SimDuration) {
        self.ledger.charge_cpu(self.bundle, d);
    }

    /// Records `bytes` of memory newly held by the bundle.
    pub fn alloc(&mut self, bytes: u64) {
        self.ledger.alloc(self.bundle, bytes);
    }

    /// Records `bytes` of memory released by the bundle.
    pub fn free(&mut self, bytes: u64) {
        self.ledger.free(self.bundle, bytes);
    }

    /// Records `bytes` written to the bundle's persistent storage area.
    pub fn charge_disk(&mut self, bytes: u64) {
        self.ledger.charge_disk(self.bundle, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_services() {
        let mut ledger = UsageLedger::new();
        let mut svc = |ctx: &mut CallContext<'_>, method: &str, arg: &Value| match method {
            "echo" => {
                ctx.charge_cpu(SimDuration::from_micros(50));
                Ok(arg.clone())
            }
            other => Err(ServiceError::Failed(format!("no {other}"))),
        };
        let mut ctx = CallContext::new(BundleId(1), &mut ledger, None);
        let out = Service::call(&mut svc, &mut ctx, "echo", &Value::Int(7)).unwrap();
        assert_eq!(out, Value::Int(7));
        assert!(Service::call(&mut svc, &mut ctx, "bogus", &Value::Null).is_err());
        assert_eq!(
            ledger.snapshot(BundleId(1)).cpu,
            SimDuration::from_micros(50)
        );
    }

    #[test]
    fn context_charges_the_right_bundle() {
        let mut ledger = UsageLedger::new();
        {
            let mut ctx = CallContext::new(BundleId(2), &mut ledger, None);
            assert_eq!(ctx.bundle(), BundleId(2));
            ctx.alloc(1024);
            ctx.free(24);
            ctx.charge_disk(100);
        }
        let snap = ledger.snapshot(BundleId(2));
        assert_eq!(snap.memory, 1000);
        assert_eq!(snap.disk, 100);
        assert_eq!(ledger.snapshot(BundleId(3)).memory, 0);
    }
}
