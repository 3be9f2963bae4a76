//! Object representations: the client-local private state of an object.

use std::any::Any;
use std::fmt;

use crate::error::{Result, SpringError};

/// State stored in an object's representation.
///
/// Each subcontract defines its own representation type (a set of door
/// identifiers for replicon, a door plus an object name for reconnectable,
/// and so on) and downcasts at the boundary. Representations that mutate
/// under shared access (replicon's failover, reconnectable's rebinding) use
/// interior mutability.
pub trait ReprState: Any + Send + Sync + fmt::Debug {
    /// Upcast to [`Any`] for downcasting by the owning subcontract.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any + Send + Sync + fmt::Debug> ReprState for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An object's representation: opaque to everyone except its subcontract.
pub struct Repr(Box<dyn ReprState>);

impl Repr {
    /// Wraps a concrete representation.
    pub fn new<T: ReprState>(state: T) -> Self {
        Repr(Box::new(state))
    }

    /// Downcasts to the subcontract's concrete representation type.
    ///
    /// Fails with [`SpringError::BadRepresentation`] when the representation
    /// was produced by a different subcontract — the composition bug the
    /// paper's conventions are designed to prevent.
    #[inline]
    pub fn downcast<T: ReprState>(&self, sc_name: &'static str) -> Result<&T> {
        // Dispatch on the inner `dyn ReprState`, not on the `Box` (which
        // also satisfies the blanket impl and would report its own TypeId).
        (*self.0)
            .as_any()
            .downcast_ref::<T>()
            .ok_or(SpringError::BadRepresentation(sc_name))
    }

    /// Consumes the representation, downcasting to the concrete type.
    pub fn into_downcast<T: ReprState>(self, sc_name: &'static str) -> Result<Box<T>> {
        let any: Box<dyn Any> = self.0;
        any.downcast::<T>()
            .map_err(|_| SpringError::BadRepresentation(sc_name))
    }
}

impl fmt::Debug for Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Repr({:?})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct DoorSet(Vec<u32>);

    #[derive(Debug)]
    struct Other;

    #[test]
    fn downcast_matches_concrete_type() {
        let r = Repr::new(DoorSet(vec![1, 2]));
        assert_eq!(r.downcast::<DoorSet>("test").unwrap().0, vec![1, 2]);
        assert_eq!(
            r.downcast::<Other>("test").unwrap_err(),
            SpringError::BadRepresentation("test")
        );
    }

    #[test]
    fn into_downcast_consumes() {
        let r = Repr::new(DoorSet(vec![3]));
        let boxed = r.into_downcast::<DoorSet>("test").unwrap();
        assert_eq!(boxed.0, vec![3]);

        let r = Repr::new(Other);
        assert!(r.into_downcast::<DoorSet>("test").is_err());
    }
}
