//! The topic registry: pub/sub topics as named objects.
//!
//! A topic is just a [`spring_subcontracts::PubSub`] object; what makes it
//! *discoverable* is a binding in the name service. This servant owns that
//! glue: `topic.create` exports a fresh hub and binds the topic object
//! under the requested path in a naming context, `topic.remove` unbinds it
//! **and** shuts the hub down (evicting live subscribers with a
//! notification) — necessary because remote subscriber proxies pin the
//! hub's door in the network export table, so dropping the binding alone
//! would leave the hub running with no name.
//!
//! Subscribers need nothing from this module: they resolve the path with
//! an ordinary [`NameClient::resolve`] against
//! [`spring_subcontracts::pubsub::PUBSUB_TOPIC_TYPE`] and subscribe through
//! their local [`spring_subcontracts::SubscriberHub`].

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_naming::NameClient;
use spring_subcontracts::pubsub::{PubSub, TopicConfig, TopicHub};
use subcontract::{
    decode_reply_status, encode_ok, encode_user_exception, op_hash, Dispatch, ReplyStatus, Result,
    ServerCtx, SpringError, SpringObj, TypeInfo, OBJECT_TYPE,
};

/// Run-time type of the topic registry servant.
pub static TOPIC_REGISTRY_TYPE: TypeInfo = TypeInfo {
    name: "topic_registry",
    parents: &[&OBJECT_TYPE],
    default_subcontract: spring_subcontracts::Singleton::ID,
};

/// Creates a topic: `(path, queue_bound u32, backpressure_us u64)`.
pub const OP_TOPIC_CREATE: u32 = op_hash("topic.create");
/// Removes a topic by path, evicting its subscribers.
pub const OP_TOPIC_REMOVE: u32 = op_hash("topic.remove");
/// Lists the registry's topic paths, sorted.
pub const OP_TOPIC_LIST: u32 = op_hash("topic.list");

/// User exception raised when creating an already-bound path or removing an
/// unknown one.
pub const EXN_TOPIC: &str = "topic_error";

/// The registry: creates hubs in its own domain and binds them by name.
pub struct TopicRegistry {
    ctx: Arc<subcontract::DomainCtx>,
    names: NameClient,
    topics: Mutex<HashMap<String, Weak<TopicHub>>>,
}

impl TopicRegistry {
    /// Creates a registry whose topics are bound in `names` (typically a
    /// dedicated `topics/` context).
    pub fn new(ctx: &Arc<subcontract::DomainCtx>, names: NameClient) -> Arc<TopicRegistry> {
        Arc::new(TopicRegistry {
            ctx: ctx.clone(),
            names,
            topics: Mutex::new(HashMap::new()),
        })
    }

    /// The naming context topics are bound under.
    pub fn names(&self) -> &NameClient {
        &self.names
    }

    /// Creates and binds a topic, returning its hub for local publishing.
    pub fn create_topic(&self, path: &str, cfg: TopicConfig) -> Result<Arc<TopicHub>> {
        if self.names.exists(path) {
            return Err(SpringError::Remote(format!("topic {path} already bound")));
        }
        let (obj, hub) = PubSub::export(&self.ctx, path, cfg)?;
        // On bind failure the object is dropped here, which consumes it and
        // deletes the hub's door — no cleanup to do.
        self.names.bind_consume(path, obj)?;
        self.topics
            .lock()
            .insert(path.to_owned(), Arc::downgrade(&hub));
        Ok(hub)
    }

    /// Unbinds a topic and shuts its hub down. Live subscribers receive an
    /// eviction notification; their doors (both sides) are released.
    fn remove_topic(&self, path: &str) -> Result<()> {
        let hub = self.topics.lock().remove(path);
        self.names.unbind(path)?;
        // The binding kept the hub's door identifier alive in the naming
        // server; if no proxies remain, unbind alone triggers the hub's
        // unreferenced teardown. Remote subscribers pin the door through
        // the export table, so shut the hub down explicitly as well
        // (idempotent when unreferenced already ran).
        if let Some(hub) = hub.and_then(|w| w.upgrade()) {
            hub.shutdown(&format!("topic {path} removed"));
        }
        Ok(())
    }

    /// The hub for a path this registry created, if it is still alive.
    pub fn hub(&self, path: &str) -> Option<Arc<TopicHub>> {
        self.topics.lock().get(path).and_then(Weak::upgrade)
    }

    /// The topic paths this registry created, sorted.
    pub fn paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self.topics.lock().keys().cloned().collect();
        paths.sort();
        paths
    }
}

impl Dispatch for TopicRegistry {
    fn type_info(&self) -> &'static TypeInfo {
        &TOPIC_REGISTRY_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        match op {
            x if x == OP_TOPIC_CREATE => {
                let path = args.get_string()?;
                let queue_bound = args.get_u32()?;
                let backpressure_us = args.get_u64()?;
                let cfg = TopicConfig {
                    queue_bound: queue_bound as usize,
                    backpressure: Duration::from_micros(backpressure_us),
                };
                match self.create_topic(&path, cfg) {
                    Ok(_) => {
                        encode_ok(reply);
                        Ok(())
                    }
                    Err(e) => {
                        encode_user_exception(reply, EXN_TOPIC);
                        reply.put_string(&e.to_string());
                        Ok(())
                    }
                }
            }
            x if x == OP_TOPIC_REMOVE => {
                let path = args.get_string()?;
                match self.remove_topic(&path) {
                    Ok(()) => {
                        encode_ok(reply);
                        Ok(())
                    }
                    Err(e) => {
                        encode_user_exception(reply, EXN_TOPIC);
                        reply.put_string(&e.to_string());
                        Ok(())
                    }
                }
            }
            x if x == OP_TOPIC_LIST => {
                let paths = self.paths();
                encode_ok(reply);
                reply.put_u32(paths.len() as u32);
                for p in paths {
                    reply.put_string(&p);
                }
                Ok(())
            }
            other => Err(SpringError::UnknownOp(other)),
        }
    }

    fn unreferenced(&self) {
        // The registry object died: tear down every topic it created so no
        // orphaned hub keeps workers and doors alive.
        let paths = self.paths();
        for path in paths {
            let _ = self.remove_topic(&path);
        }
    }
}

/// Typed convenience wrapper playing the role of generated stubs.
pub struct TopicRegistryClient(pub SpringObj);

impl TopicRegistryClient {
    /// Creates and binds a topic on the registry's machine.
    pub fn create(&self, path: &str, cfg: TopicConfig) -> Result<()> {
        let mut call = self.0.start_call(OP_TOPIC_CREATE)?;
        call.put_string(path);
        call.put_u32(cfg.queue_bound as u32);
        call.put_u64(cfg.backpressure.as_micros() as u64);
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)
    }

    /// Removes a topic, evicting its subscribers.
    pub fn remove(&self, path: &str) -> Result<()> {
        let mut call = self.0.start_call(OP_TOPIC_REMOVE)?;
        call.put_string(path);
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)
    }

    /// Lists the registry's topic paths, sorted.
    pub fn list(&self) -> Result<Vec<String>> {
        let call = self.0.start_call(OP_TOPIC_LIST)?;
        let mut reply = self.0.invoke(call)?;
        expect_ok(&mut reply)?;
        let n = reply.get_seq_len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(reply.get_string()?);
        }
        Ok(out)
    }
}

fn expect_ok(reply: &mut CommBuffer) -> Result<()> {
    match decode_reply_status(reply)? {
        ReplyStatus::Ok => Ok(()),
        ReplyStatus::UserException(name) if name == EXN_TOPIC => {
            let why = reply.get_string()?;
            Err(SpringError::Remote(why))
        }
        ReplyStatus::UserException(name) => {
            Err(SpringError::Remote(format!("unexpected exception {name}")))
        }
    }
}
