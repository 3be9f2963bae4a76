//! Per-domain context tying together the kernel and the subcontract world.

use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use spring_kernel::Domain;

use crate::error::{Result, SpringError};
use crate::loader::{LibraryLoader, LibraryNameContext, LibraryStore};
use crate::registry::SubcontractRegistry;
use crate::scid::ScId;
use crate::traits::{Resolver, Subcontract};
use crate::types::TypeRegistry;

/// Everything a domain's subcontract machinery needs: the kernel domain
/// handle, the subcontract registry, the type registry, the dynamic linker,
/// and the naming hooks individual subcontracts rely on.
///
/// One `DomainCtx` exists per domain; objects hold an `Arc` to it.
///
/// # Examples
///
/// ```
/// use spring_kernel::Kernel;
/// use subcontract::DomainCtx;
///
/// let kernel = Kernel::new("machine");
/// let ctx = DomainCtx::new(kernel.create_domain("app"));
/// assert!(ctx.registry().is_empty()); // Subcontracts are linked in explicitly.
/// ```
pub struct DomainCtx {
    domain: Domain,
    registry: SubcontractRegistry,
    types: TypeRegistry,
    loader: RwLock<Option<LibraryLoader>>,
    lib_names: RwLock<Option<Arc<dyn LibraryNameContext>>>,
    resolver: RwLock<Option<Arc<dyn Resolver>>>,
}

impl DomainCtx {
    /// Creates a context for a kernel domain.
    pub fn new(domain: Domain) -> Arc<DomainCtx> {
        Arc::new(DomainCtx {
            domain,
            registry: SubcontractRegistry::new(),
            types: TypeRegistry::new(),
            loader: RwLock::new(None),
            lib_names: RwLock::new(None),
            resolver: RwLock::new(None),
        })
    }

    /// The kernel domain this context belongs to.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The domain's subcontract registry.
    pub fn registry(&self) -> &SubcontractRegistry {
        &self.registry
    }

    /// The domain's type registry.
    pub fn types(&self) -> &TypeRegistry {
        &self.types
    }

    /// Registers a subcontract (the program "linking" it in at startup).
    pub fn register_subcontract(&self, sc: Arc<dyn Subcontract>) {
        self.registry.register(sc);
    }

    /// Configures the dynamic linker: the machine's library store plus this
    /// domain's trusted directory search path (§6.2).
    pub fn configure_loader(&self, store: Arc<LibraryStore>, search_path: Vec<String>) {
        *self.loader.write() = Some(LibraryLoader::new(store, search_path));
    }

    /// Sets the naming context that maps subcontract identifiers to library
    /// names during dynamic discovery.
    pub fn set_library_names(&self, names: Arc<dyn LibraryNameContext>) {
        *self.lib_names.write() = Some(names);
    }

    /// Sets the machine-local name resolver used by subcontracts that need
    /// naming (caching's cache manager lookup, reconnectable's re-resolve).
    pub fn set_resolver(&self, resolver: Arc<dyn Resolver>) {
        *self.resolver.write() = Some(resolver);
    }

    /// The machine-local name resolver, if configured.
    pub fn resolver(&self) -> Result<Arc<dyn Resolver>> {
        self.resolver.read().clone().ok_or(SpringError::Unsupported(
            "no resolver configured in this domain",
        ))
    }

    /// Finds the subcontract for an identifier, running the full discovery
    /// protocol of §6.2 on a registry miss:
    ///
    /// 1. hit in the domain's subcontract registry → done;
    /// 2. otherwise map the identifier to a library name via the configured
    ///    naming context;
    /// 3. dynamically link that library (trusted search path enforced) and
    ///    retry the registry.
    pub fn lookup_subcontract(self: &Arc<Self>, id: ScId) -> Result<Arc<dyn Subcontract>> {
        if let Some(sc) = self.registry.get(id) {
            return Ok(sc);
        }
        let lib_name = {
            let names = self.lib_names.read();
            match &*names {
                Some(ctx) => ctx.library_for(id).ok_or(SpringError::UnknownLibrary(id))?,
                None => return Err(SpringError::UnknownSubcontract(id)),
            }
        };
        {
            let loader = self.loader.read();
            match &*loader {
                Some(l) => l.load(self, &lib_name)?,
                None => return Err(SpringError::UnknownSubcontract(id)),
            }
        }
        self.registry
            .get(id)
            .ok_or(SpringError::UnknownSubcontract(id))
    }
}

impl fmt::Debug for DomainCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DomainCtx({:?}, {} subcontracts)",
            self.domain,
            self.registry.len()
        )
    }
}
