//! Simulated dynamic linking of subcontract libraries (§6.2).
//!
//! At run time a program may encounter objects whose subcontracts were not
//! linked in. The paper's discovery protocol: the unmarshal operation misses
//! in the domain's subcontract registry, a (network) naming context maps the
//! subcontract identifier to a library name (for example `replicon.so`), and
//! the dynamic linker loads that library — but, for security, "the dynamic
//! linker will only load libraries that are on a designated directory
//! search-path of trustworthy locations".
//!
//! Loading real shared objects would add nothing to the mechanism under
//! study, so the "filesystem of installed libraries" is a [`LibraryStore`]
//! and a library's code is a factory function producing its subcontracts.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::ctx::DomainCtx;
use crate::error::{Result, SpringError};
use crate::scid::ScId;
use crate::traits::Subcontract;

/// Factory producing the subcontracts a library exports.
pub type LibraryFactory = Arc<dyn Fn() -> Vec<Arc<dyn Subcontract>> + Send + Sync>;

/// One installed library: where it lives and what it provides.
#[derive(Clone)]
pub struct InstalledLibrary {
    /// The directory the library is installed in (for example
    /// `"/usr/lib/subcontracts"`); trust is decided per directory.
    pub location: String,
    /// The library's code.
    pub factory: LibraryFactory,
}

/// The simulated filesystem of installed subcontract libraries, shared by
/// every domain on a machine.
///
/// Installing a library models the privileged administrator action of
/// placing a `.so` in some directory; whether a given domain will *load* it
/// depends on that domain's trusted search path ([`LibraryLoader`]).
#[derive(Default)]
pub struct LibraryStore {
    libs: RwLock<HashMap<String, InstalledLibrary>>,
}

impl LibraryStore {
    /// Creates an empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Installs (or replaces) a library under `name` at `location`.
    pub fn install(
        &self,
        name: impl Into<String>,
        location: impl Into<String>,
        factory: LibraryFactory,
    ) {
        self.libs.write().insert(
            name.into(),
            InstalledLibrary {
                location: location.into(),
                factory,
            },
        );
    }

    /// Removes a library.
    pub fn uninstall(&self, name: &str) {
        self.libs.write().remove(name);
    }

    /// Looks up a library by name.
    pub fn get(&self, name: &str) -> Option<InstalledLibrary> {
        self.libs.read().get(name).cloned()
    }
}

impl fmt::Debug for LibraryStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LibraryStore({} libraries)", self.libs.read().len())
    }
}

/// Maps subcontract identifiers to library names.
///
/// The paper uses "a network naming context to map the subcontract
/// identifier into a library name"; the name service implements this trait,
/// and tests can use the in-memory [`MapLibraryNames`].
pub trait LibraryNameContext: Send + Sync {
    /// Returns the library name for a subcontract identifier, if known.
    fn library_for(&self, id: ScId) -> Option<String>;
}

/// A simple in-memory [`LibraryNameContext`].
#[derive(Default)]
pub struct MapLibraryNames {
    map: RwLock<HashMap<ScId, String>>,
}

impl MapLibraryNames {
    /// Creates an empty mapping.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Associates a subcontract identifier with a library name.
    pub fn bind(&self, id: ScId, library: impl Into<String>) {
        self.map.write().insert(id, library.into());
    }
}

impl LibraryNameContext for MapLibraryNames {
    fn library_for(&self, id: ScId) -> Option<String> {
        self.map.read().get(&id).cloned()
    }
}

/// A domain's dynamic linker for subcontract libraries.
///
/// Holds the domain's trusted directory search path; loading a library
/// installed anywhere else fails with [`SpringError::UntrustedLibrary`].
pub struct LibraryLoader {
    store: Arc<LibraryStore>,
    search_path: Vec<String>,
}

impl LibraryLoader {
    /// Creates a loader over `store` trusting the given directories.
    pub fn new(store: Arc<LibraryStore>, search_path: Vec<String>) -> Self {
        LibraryLoader { store, search_path }
    }

    /// Loads a library by name, enforcing the trust policy, and registers
    /// everything it provides in the domain's subcontract registry.
    pub fn load(&self, ctx: &Arc<DomainCtx>, name: &str) -> Result<()> {
        let lib = self
            .store
            .get(name)
            .ok_or_else(|| SpringError::ResolveFailed(name.to_owned()))?;
        let trusted = self.search_path.contains(&lib.location);
        if !trusted {
            return Err(SpringError::UntrustedLibrary {
                library: name.to_owned(),
                location: lib.location.clone(),
            });
        }
        for sc in (lib.factory)() {
            ctx.registry().register(sc);
        }
        Ok(())
    }
}

impl fmt::Debug for LibraryLoader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LibraryLoader(search path {:?})", self.search_path)
    }
}
