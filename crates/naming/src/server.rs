//! Server side of the name service: hierarchical context servants.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use subcontract::{
    encode_ok, encode_user_exception, unmarshal_object, Dispatch, DomainCtx, Result, ServerCtx,
    ServerSubcontract, SpringError, SpringObj, TypeInfo, OBJECT_TYPE,
};

use crate::{ops, NAMING_CONTEXT_TYPE, NAMING_ERROR};

enum Entry {
    /// A bound object, held live in the server's domain.
    Object(SpringObj),
    /// A nested context.
    Context(Arc<ContextServant>),
}

/// One naming context: a table of entries, possibly nested.
pub(crate) struct ContextServant {
    entries: Mutex<HashMap<String, Entry>>,
}

impl ContextServant {
    fn new() -> Arc<ContextServant> {
        Arc::new(ContextServant {
            entries: Mutex::new(HashMap::new()),
        })
    }

    /// Walks a `a/b/c` path to the owning context and the leaf component.
    fn walk<'a>(
        self: &Arc<Self>,
        path: &'a str,
    ) -> std::result::Result<(Arc<ContextServant>, &'a str), String> {
        let mut current = self.clone();
        let mut rest = path;
        while let Some((head, tail)) = rest.split_once('/') {
            if head.is_empty() {
                return Err(format!("empty path component in {path:?}"));
            }
            let next = {
                let entries = current.entries.lock();
                match entries.get(head) {
                    Some(Entry::Context(c)) => c.clone(),
                    Some(Entry::Object(_)) => {
                        return Err(format!("{head:?} is an object, not a context"))
                    }
                    None => return Err(format!("no such context {head:?}")),
                }
            };
            current = next;
            rest = tail;
        }
        if rest.is_empty() {
            return Err(format!("path {path:?} has no leaf component"));
        }
        Ok((current, rest))
    }

    fn bind(self: &Arc<Self>, path: &str, obj: SpringObj) -> std::result::Result<(), String> {
        let (ctx, leaf) = self.walk(path)?;
        let mut entries = ctx.entries.lock();
        if entries.contains_key(leaf) {
            return Err(format!("{leaf:?} already bound"));
        }
        entries.insert(leaf.to_owned(), Entry::Object(obj));
        Ok(())
    }

    fn unbind(self: &Arc<Self>, path: &str) -> std::result::Result<(), String> {
        let (ctx, leaf) = self.walk(path)?;
        let removed = ctx.entries.lock().remove(leaf);
        match removed {
            Some(_) => Ok(()),
            None => Err(format!("no such name {leaf:?}")),
        }
    }

    fn list(self: &Arc<Self>) -> Vec<String> {
        let mut names: Vec<String> = self.entries.lock().keys().cloned().collect();
        names.sort();
        names
    }

    fn create_context(
        self: &Arc<Self>,
        path: &str,
    ) -> std::result::Result<Arc<ContextServant>, String> {
        let (ctx, leaf) = self.walk(path)?;
        let mut entries = ctx.entries.lock();
        if entries.contains_key(leaf) {
            return Err(format!("{leaf:?} already bound"));
        }
        let child = ContextServant::new();
        entries.insert(leaf.to_owned(), Entry::Context(child.clone()));
        Ok(child)
    }
}

/// Dispatcher exposing one [`ContextServant`] as a Spring object.
struct ContextDispatch {
    servant: Arc<ContextServant>,
}

fn naming_error(reply: &mut CommBuffer, why: String) {
    encode_user_exception(reply, NAMING_ERROR);
    reply.put_string(&why);
}

impl Dispatch for ContextDispatch {
    fn type_info(&self) -> &'static TypeInfo {
        &NAMING_CONTEXT_TYPE
    }

    fn dispatch(
        &self,
        sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        match op {
            x if x == ops::BIND => {
                let name = args.get_string()?;
                // The object arrives in copy mode: we own what we unmarshal.
                let obj = unmarshal_object(&sctx.ctx, &OBJECT_TYPE, args)?;
                match self.servant.bind(&name, obj) {
                    Ok(()) => encode_ok(reply),
                    Err(why) => naming_error(reply, why),
                }
                Ok(())
            }
            x if x == ops::RESOLVE => {
                // The path is walked where it lies in the call buffer.
                let name = args.get_str()?;
                let (owner, leaf) = match self.servant.walk(name) {
                    Ok(x) => x,
                    Err(why) => {
                        naming_error(reply, why);
                        return Ok(());
                    }
                };
                let entries = owner.entries.lock();
                match entries.get(leaf) {
                    Some(Entry::Object(obj)) => {
                        encode_ok(reply);
                        // A marshal failure past this point becomes a
                        // transport-level Handler error (the status byte is
                        // already out), which is the honest outcome: the
                        // server failed to construct the reply.
                        obj.marshal_copy(reply)?;
                    }
                    Some(Entry::Context(child)) => {
                        // Resolving a context yields a fresh context object,
                        // enabling federation across machines.
                        let child = child.clone();
                        drop(entries);
                        let obj = export_context(&sctx.ctx, child)?;
                        encode_ok(reply);
                        obj.marshal(reply)?;
                    }
                    None => naming_error(reply, format!("no such name {leaf:?}")),
                }
                Ok(())
            }
            x if x == ops::UNBIND => {
                let name = args.get_str()?;
                match self.servant.unbind(name) {
                    Ok(()) => encode_ok(reply),
                    Err(why) => naming_error(reply, why),
                }
                Ok(())
            }
            x if x == ops::LIST => {
                let names = self.servant.list();
                encode_ok(reply);
                reply.put_seq_len(names.len());
                for n in &names {
                    reply.put_string(n);
                }
                Ok(())
            }
            x if x == ops::CREATE_CONTEXT => {
                let name = args.get_string()?;
                match self.servant.create_context(&name) {
                    Ok(child) => {
                        let obj = export_context(&sctx.ctx, child)?;
                        encode_ok(reply);
                        obj.marshal(reply)?;
                        Ok(())
                    }
                    Err(why) => {
                        naming_error(reply, why);
                        Ok(())
                    }
                }
            }
            other => Err(SpringError::UnknownOp(other)),
        }
    }
}

fn export_context(ctx: &Arc<DomainCtx>, servant: Arc<ContextServant>) -> Result<SpringObj> {
    spring_subcontracts::Simplex.export(ctx, Arc::new(ContextDispatch { servant }))
}

/// The name server: owns the root context of one naming hierarchy.
pub struct NameServer {
    ctx: Arc<DomainCtx>,
    root: Arc<ContextServant>,
}

impl NameServer {
    /// Creates a name server in `ctx`'s domain. The domain must have the
    /// standard subcontracts registered (bound objects of any subcontract
    /// are unmarshalled here).
    pub fn new(ctx: &Arc<DomainCtx>) -> Arc<NameServer> {
        ctx.types().register(&NAMING_CONTEXT_TYPE);
        Arc::new(NameServer {
            ctx: ctx.clone(),
            root: ContextServant::new(),
        })
    }

    /// Exports a fresh object for the root context, ready to hand to other
    /// domains (each call creates a new door-holding object).
    pub fn root_object(&self) -> Result<SpringObj> {
        export_context(&self.ctx, self.root.clone())
    }

    /// The serving domain's context.
    pub fn ctx(&self) -> &Arc<DomainCtx> {
        &self.ctx
    }
}
