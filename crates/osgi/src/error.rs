//! Framework error types.

use crate::{BundleId, BundleState, PackageName, ServiceId, Version};
use dosgi_san::StoreError;
use std::fmt;

/// Errors from bundle lifecycle and framework operations.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleError {
    /// The bundle id is unknown to this framework.
    NotFound(BundleId),
    /// The requested operation is illegal in the bundle's current state.
    InvalidTransition {
        /// The bundle.
        bundle: BundleId,
        /// Its state at the time of the call.
        state: BundleState,
        /// The operation attempted (`"start"`, `"stop"`, …).
        operation: &'static str,
    },
    /// The resolver could not satisfy one or more mandatory imports.
    ResolutionFailed {
        /// The bundle that failed to resolve.
        bundle: BundleId,
        /// The unsatisfiable imports.
        missing: Vec<PackageName>,
    },
    /// A bundle with the same symbolic name and version is already
    /// installed.
    DuplicateBundle {
        /// The existing bundle.
        existing: BundleId,
    },
    /// The activator returned an error; the bundle was left in the state
    /// noted.
    ActivatorFailed {
        /// The bundle whose activator failed.
        bundle: BundleId,
        /// The activator's message.
        message: String,
    },
    /// A manifest failed validation.
    InvalidManifest(String),
    /// An in-place upgrade was rejected before touching the running
    /// bundle: the target revision cannot adopt the persisted state the
    /// current revision owns (different symbolic name, or a different
    /// major version than the one that wrote the state). Never
    /// transient — retrying the same target cannot succeed.
    IncompatibleUpgrade {
        /// The bundle whose upgrade was rejected.
        bundle: BundleId,
        /// The version owning the persisted state.
        state: Version,
        /// The rejected target version.
        target: Version,
    },
    /// Persistent state could not be read back.
    CorruptState(String),
    /// The SAN rejected a persistence operation (usually transient — see
    /// [`StoreError::is_transient`]).
    Store(StoreError),
}

impl BundleError {
    /// The underlying [`StoreError`] if this error came from the SAN.
    /// Retry/quarantine logic uses this to separate transient storage
    /// faults from semantic failures.
    pub fn store_error(&self) -> Option<&StoreError> {
        match self {
            BundleError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for BundleError {
    fn from(e: StoreError) -> Self {
        BundleError::Store(e)
    }
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::NotFound(id) => write!(f, "bundle {id} not found"),
            BundleError::InvalidTransition {
                bundle,
                state,
                operation,
            } => write!(f, "cannot {operation} bundle {bundle} in state {state}"),
            BundleError::ResolutionFailed { bundle, missing } => {
                write!(f, "bundle {bundle} unresolved; missing imports: ")?;
                for (i, p) in missing.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            BundleError::DuplicateBundle { existing } => {
                write!(
                    f,
                    "same symbolic name and version already installed as {existing}"
                )
            }
            BundleError::ActivatorFailed { bundle, message } => {
                write!(f, "activator of bundle {bundle} failed: {message}")
            }
            BundleError::InvalidManifest(msg) => write!(f, "invalid manifest: {msg}"),
            BundleError::IncompatibleUpgrade {
                bundle,
                state,
                target,
            } => write!(
                f,
                "bundle {bundle}: version {target} cannot adopt state written by {state}"
            ),
            BundleError::CorruptState(msg) => write!(f, "corrupt persistent state: {msg}"),
            BundleError::Store(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

/// Errors from service lookup and invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// No service satisfies the interface/filter.
    NoSuchService(String),
    /// The service id is stale (unregistered).
    Gone(ServiceId),
    /// The service does not implement the invoked method.
    MethodNotFound {
        /// The service invoked.
        service: ServiceId,
        /// The missing method name.
        method: String,
    },
    /// The service implementation reported a failure.
    Failed(String),
    /// A sandbox policy denied the operation (set by the vosgi layer).
    PermissionDenied(String),
    /// The SAN rejected a read of the service's persistent data area, or
    /// the write-through of the rows the call wrote; the call's effects
    /// were NOT durably acknowledged.
    Store(StoreError),
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NoSuchService(what) => write!(f, "no such service: {what}"),
            ServiceError::Gone(id) => write!(f, "service {id} has been unregistered"),
            ServiceError::MethodNotFound { service, method } => {
                write!(f, "service {service} has no method {method:?}")
            }
            ServiceError::Failed(msg) => write!(f, "service failed: {msg}"),
            ServiceError::PermissionDenied(msg) => write!(f, "permission denied: {msg}"),
            ServiceError::Store(e) => write!(f, "persistent data area access failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_error_display() {
        let e = BundleError::InvalidTransition {
            bundle: BundleId(3),
            state: BundleState::Active,
            operation: "start",
        };
        assert_eq!(e.to_string(), "cannot start bundle b3 in state ACTIVE");
        let e = BundleError::ResolutionFailed {
            bundle: BundleId(1),
            missing: vec![
                PackageName::new("a.b").unwrap(),
                PackageName::new("c.d").unwrap(),
            ],
        };
        assert_eq!(
            e.to_string(),
            "bundle b1 unresolved; missing imports: a.b, c.d"
        );
    }

    #[test]
    fn service_error_display() {
        assert_eq!(
            ServiceError::MethodNotFound {
                service: ServiceId(2),
                method: "frob".into()
            }
            .to_string(),
            "service s2 has no method \"frob\""
        );
        assert_eq!(
            ServiceError::NoSuchService("org.example.Log".into()).to_string(),
            "no such service: org.example.Log"
        );
    }
}
