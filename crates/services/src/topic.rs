//! The topic registry: pub/sub topics as named objects.
//!
//! A topic is just a [`spring_subcontracts::PubSub`] object; what makes it
//! *discoverable* is a binding in the name service. This servant owns that
//! glue. Its door is the `topics::directory` interface of
//! [`idl/topics.idl`](../idl/topics.idl), whose client
//! ([`topics::Directory`]) and skeleton ([`topics::DirectorySkeleton`]) are
//! generated: `create` exports a fresh hub and binds the topic object under
//! the requested path in a naming context, `remove` unbinds it **and**
//! shuts the hub down (evicting live subscribers with a notification) —
//! necessary because remote subscriber proxies pin the hub's door in the
//! network export table, so dropping the binding alone would leave the hub
//! running with no name. Both raise `topic_error` on a bound or unknown
//! path. When the registry's own object is unreferenced, the skeleton
//! passes the notice on and the registry removes every topic it created.
//!
//! Subscribers need nothing from this module: they resolve the path with
//! an ordinary [`NameClient::resolve`] against
//! [`spring_subcontracts::pubsub::PUBSUB_TOPIC_TYPE`] and subscribe through
//! their local [`spring_subcontracts::SubscriberHub`].

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use spring_naming::NameClient;
use spring_subcontracts::pubsub::{PubSub, TopicConfig, TopicHub};
use subcontract::{Result, SpringError};

use crate::idl::topics;

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

fn topic_error(e: SpringError) -> topics::DirectoryError {
    topics::DirectoryError::TopicError(topics::TopicError {
        reason: e.to_string(),
    })
}

impl topics::DirectoryServant for TopicRegistry {
    fn create(
        &self,
        path: String,
        queue_bound: u32,
        backpressure_us: u64,
    ) -> std::result::Result<(), topics::DirectoryError> {
        let cfg = TopicConfig {
            queue_bound: queue_bound as usize,
            backpressure: Duration::from_micros(backpressure_us),
        };
        self.create_topic(&path, cfg).map(drop).map_err(topic_error)
    }

    fn remove(&self, path: String) -> std::result::Result<(), topics::DirectoryError> {
        self.remove_topic(&path).map_err(topic_error)
    }

    fn list(&self) -> std::result::Result<Vec<String>, topics::DirectoryError> {
        Ok(self.paths())
    }

    fn unreferenced(&self) {
        // The registry object died: tear down every topic it created so no
        // orphaned hub keeps workers and doors alive.
        for path in self.paths() {
            let _ = self.remove_topic(&path);
        }
    }
}
