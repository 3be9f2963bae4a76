//! The unified error type for subcontract operations.

use std::fmt;

use spring_buf::{BufError, WireError};
use spring_kernel::DoorError;

use crate::scid::ScId;

/// Convenience alias used across the subcontract machinery.
pub type Result<T> = std::result::Result<T, SpringError>;

// Values of up to 128 bytes move as inline copies on x86-64; larger ones call `memcpy`.
const _: () = assert!(size_of::<Result<spring_buf::CommBuffer>>() <= 120);

/// Errors surfaced by subcontract operations and generated stubs.
#[derive(Clone, Debug, PartialEq)]
pub enum SpringError {
    /// A kernel door operation failed.
    Door(DoorError),
    /// Marshalling or unmarshalling failed.
    Buf(BufError),
    /// A flat (fixed-shape) frame failed its validate-then-cast check.
    Wire(WireError),
    /// No subcontract with this identifier is registered, and dynamic
    /// discovery could not locate one either.
    UnknownSubcontract(ScId),
    /// Dynamic discovery found no library name for this subcontract.
    UnknownLibrary(ScId),
    /// The named library exists but is not installed in a trusted location
    /// on the domain's search path (§6.2 security rule).
    UntrustedLibrary {
        /// The library that was refused.
        library: String,
        /// Where it was installed.
        location: String,
    },
    /// A run-time type check failed (`narrow`, or a marshalled object whose
    /// actual type does not conform to the expected type).
    TypeMismatch {
        /// The type the receiver expected.
        expected: &'static str,
        /// The actual type carried by the marshalled form.
        actual: String,
    },
    /// The server rejected an operation number (stub/skeleton mismatch).
    UnknownOp(u32),
    /// The remote end reported a system-level failure.
    Remote(String),
    /// The remote end raised a user exception this stub does not know.
    UnknownUserException(String),
    /// A subcontract was handed a representation of the wrong shape —
    /// always a programming error in subcontract composition.
    BadRepresentation(&'static str),
    /// A name could not be resolved.
    ResolveFailed(String),
    /// The operation is not supported by this subcontract.
    Unsupported(&'static str),
    /// A fault-tolerant subcontract ran out of alternatives (replicon with
    /// no live replicas, reconnectable past its retry budget).
    Exhausted(&'static str),
    /// The server's admission controller shed this call under overload
    /// (§8.4 priority subcontract). Carries the queue delay the server
    /// measured when it rejected the call, so clients can back off
    /// proportionally. Not a comm failure: retrying immediately would make
    /// the overload worse, so fault-tolerant subcontracts surface it.
    Overloaded {
        /// Queue delay the server measured at rejection, in nanoseconds.
        queue_ns: u64,
    },
}

impl SpringError {
    /// True when the failure is a communications error, which fault-tolerant
    /// subcontracts may react to by failing over or reconnecting (§5.1.3).
    pub fn is_comm_failure(&self) -> bool {
        matches!(self, SpringError::Door(e) if e.is_comm_failure())
    }
}

impl fmt::Display for SpringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpringError::Door(e) => write!(f, "door: {e}"),
            SpringError::Buf(e) => write!(f, "marshal: {e}"),
            SpringError::Wire(e) => write!(f, "flat frame: {e}"),
            SpringError::UnknownSubcontract(id) => write!(f, "unknown subcontract {id}"),
            SpringError::UnknownLibrary(id) => {
                write!(f, "no library known for subcontract {id}")
            }
            SpringError::UntrustedLibrary { library, location } => {
                write!(
                    f,
                    "library {library} at {location} is not on the trusted search path"
                )
            }
            SpringError::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, got {actual}")
            }
            SpringError::UnknownOp(op) => write!(f, "unknown operation {op:#x}"),
            SpringError::Remote(msg) => write!(f, "remote system error: {msg}"),
            SpringError::UnknownUserException(name) => {
                write!(f, "unknown user exception {name}")
            }
            SpringError::BadRepresentation(sc) => {
                write!(f, "representation does not belong to subcontract {sc}")
            }
            SpringError::ResolveFailed(name) => write!(f, "could not resolve name {name:?}"),
            SpringError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            SpringError::Exhausted(what) => write!(f, "exhausted: {what}"),
            SpringError::Overloaded { queue_ns } => {
                write!(
                    f,
                    "server overloaded: call shed at {queue_ns} ns queue delay"
                )
            }
        }
    }
}

impl std::error::Error for SpringError {}

impl From<DoorError> for SpringError {
    fn from(e: DoorError) -> Self {
        SpringError::Door(e)
    }
}

impl From<BufError> for SpringError {
    fn from(e: BufError) -> Self {
        SpringError::Buf(e)
    }
}

impl From<WireError> for SpringError {
    fn from(e: WireError) -> Self {
        SpringError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_failure_passthrough() {
        assert!(SpringError::Door(DoorError::Revoked).is_comm_failure());
        assert!(SpringError::Door(DoorError::Comm("x".into())).is_comm_failure());
        assert!(!SpringError::Door(DoorError::InvalidDoor).is_comm_failure());
        assert!(!SpringError::Remote("x".into()).is_comm_failure());
    }

    #[test]
    fn conversions() {
        let e: SpringError = DoorError::Revoked.into();
        assert_eq!(e, SpringError::Door(DoorError::Revoked));
        let e: SpringError = BufError::InvalidUtf8.into();
        assert_eq!(e, SpringError::Buf(BufError::InvalidUtf8));
    }

    #[test]
    fn display_has_detail() {
        let e = SpringError::UntrustedLibrary {
            library: "evil.so".into(),
            location: "/tmp".into(),
        };
        let s = e.to_string();
        assert!(s.contains("evil.so") && s.contains("/tmp"));
    }
}
